package simt

import (
	"sync"
	"testing"
)

func TestStreamTrafficIsolated(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(256)
	s1, s2 := d.NewStream(), d.NewStream()

	s1.MemcpyHtoD(p, []byte("abcdefgh"))
	s2.MemcpyHtoD(p+64, []byte("xyz"))
	got := make([]byte, 8)
	s1.MemcpyDtoH(got, p)
	if string(got) != "abcdefgh" {
		t.Errorf("stream round trip: %q", got)
	}

	h2d, d2h := s1.Traffic()
	if h2d != 8 || d2h != 8 {
		t.Errorf("stream1 traffic %d/%d, want 8/8", h2d, d2h)
	}
	h2d, d2h = s2.Traffic()
	if h2d != 3 || d2h != 0 {
		t.Errorf("stream2 traffic %d/%d, want 3/0", h2d, d2h)
	}
	// And clearing is per stream.
	if h2d, _ := s1.Traffic(); h2d != 0 {
		t.Error("stream Traffic did not reset")
	}
}

func TestCumTrafficSpansStreams(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(256)
	s := d.NewStream()

	d.MemcpyHtoD(p, []byte("0123456789")) // 10 directly
	s.MemcpyHtoD(p+64, []byte("abcd"))    // 4 on a stream
	s.MemcpyDtoH(make([]byte, 6), p)      // 6 back
	d.MemcpyDtoH(make([]byte, 2), p)      // 2 back directly

	h2d, d2h := d.CumTraffic()
	if h2d != 14 || d2h != 8 {
		t.Errorf("cumulative traffic %d/%d, want 14/8", h2d, d2h)
	}
	// The odometer survives the stream's counters being drained.
	s.Traffic()
	if h2d, d2h = d.CumTraffic(); h2d != 14 || d2h != 8 {
		t.Errorf("CumTraffic reset by Traffic: %d/%d", h2d, d2h)
	}
}

func TestPrealloc(t *testing.T) {
	d := testDevice()
	if err := d.Prealloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := d.Prealloc(d.Cfg.GlobalMemBytes + 1); err == nil {
		t.Error("prealloc beyond capacity accepted")
	}
	// The arena must already cover a preallocated footprint.
	if int64(len(d.mem)) < 1<<20 {
		t.Errorf("arena %d bytes after Prealloc(1 MiB)", len(d.mem))
	}
	if _, err := d.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLaunchesShareWarpPool drives two kernel launches through
// the persistent pool at once — the pipelined driver's left/right overlap —
// and checks both land their stores and counters intact.
func TestConcurrentLaunchesShareWarpPool(t *testing.T) {
	d := testDevice()
	const warps = 16
	p1, _ := d.Malloc(warps * WarpSize * 8)
	p2, _ := d.Malloc(warps * WarpSize * 8)

	fill := func(base Ptr, salt uint64) (KernelResult, error) {
		return d.Launch(KernelConfig{Name: "fill", Warps: warps}, func(w *Warp) {
			var addrs, vals Vec
			for l := 0; l < WarpSize; l++ {
				addrs[l] = uint64(base) + uint64((w.ID*WarpSize+l)*8)
				vals[l] = salt + uint64(w.ID*WarpSize+l)
			}
			w.StoreGlobal(FullMask, &addrs, 8, &vals)
		})
	}

	var wg sync.WaitGroup
	var res [2]KernelResult
	var errs [2]error
	wg.Add(2)
	go func() { defer wg.Done(); res[0], errs[0] = fill(p1, 1000) }()
	go func() { defer wg.Done(); res[1], errs[1] = fill(p2, 2000) }()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if res[i].Warps != warps {
			t.Errorf("launch %d ran %d warps, want %d", i, res[i].Warps, warps)
		}
	}
	for i := 0; i < warps*WarpSize; i++ {
		if got := d.ReadU64(p1 + Ptr(i*8)); got != 1000+uint64(i) {
			t.Fatalf("launch 1 store %d corrupted: %d", i, got)
		}
		if got := d.ReadU64(p2 + Ptr(i*8)); got != 2000+uint64(i) {
			t.Fatalf("launch 2 store %d corrupted: %d", i, got)
		}
	}
}

func TestCloseStopsPool(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(64 * WarpSize * 8)
	if _, err := d.Launch(KernelConfig{Name: "warm", Warps: 4}, func(w *Warp) {
		var addrs, vals Vec
		for l := 0; l < WarpSize; l++ {
			addrs[l] = uint64(p) + uint64((w.ID*WarpSize+l)*8)
		}
		w.StoreGlobal(FullMask, &addrs, 8, &vals)
	}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	// Sequential launches still work after Close.
	if _, err := d.Launch(KernelConfig{Name: "seq", Warps: 2, Sequential: true}, func(w *Warp) {
		w.Exec(IInt, FullMask)
	}); err != nil {
		t.Fatal(err)
	}
}
