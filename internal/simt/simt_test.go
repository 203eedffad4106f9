package simt

import (
	"math"
	"math/bits"
	"testing"
)

func testDevice() *Device {
	cfg := V100()
	cfg.GlobalMemBytes = 1 << 26 // 64 MiB is plenty for tests
	return NewDevice(cfg)
}

func TestPeakWarpGIPSMatchesPaper(t *testing.T) {
	// Figs 8-9 show a theoretical peak of 489.6 warp GIPS for the V100.
	got := V100().PeakWarpGIPS()
	if math.Abs(got-489.6) > 0.01 {
		t.Errorf("V100 peak = %.2f warp GIPS, paper shows 489.6", got)
	}
}

func TestMallocAlignmentAndOOM(t *testing.T) {
	d := testDevice()
	p1, err := d.Malloc(10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Malloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if p1%64 != 0 || p2%64 != 0 {
		t.Errorf("allocations not 64-byte aligned: %d, %d", p1, p2)
	}
	if p2 <= p1 {
		t.Errorf("bump allocator went backwards: %d then %d", p1, p2)
	}
	if _, err := d.Malloc(d.Cfg.GlobalMemBytes); err == nil {
		t.Error("allocation beyond capacity accepted")
	}
	if _, err := d.Malloc(-1); err == nil {
		t.Error("negative allocation accepted")
	}
	d.FreeAll()
	if d.InUse() != 0 {
		t.Errorf("InUse after FreeAll = %d", d.InUse())
	}
	p3, err := d.Malloc(10)
	if err != nil || p3 != p1 {
		t.Errorf("allocator did not reset: %d vs %d (%v)", p3, p1, err)
	}
}

func TestMemcpyAndTraffic(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(64)
	src := []byte("the quick brown fox")
	d.MemcpyHtoD(p, src)
	dst := make([]byte, len(src))
	d.MemcpyDtoH(dst, p)
	if string(dst) != string(src) {
		t.Errorf("round trip: %q", dst)
	}
	h2d, d2h := d.CumTraffic()
	if h2d != int64(len(src)) || d2h != int64(len(src)) {
		t.Errorf("traffic %d/%d, want %d/%d", h2d, d2h, len(src), len(src))
	}
}

func TestHostAccessors(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(64)
	d.WriteU32(p, 0xdeadbeef)
	if d.ReadU32(p) != 0xdeadbeef {
		t.Error("u32 round trip failed")
	}
	d.WriteU64(p+8, 0x0123456789abcdef)
	if d.ReadU64(p+8) != 0x0123456789abcdef {
		t.Error("u64 round trip failed")
	}
	d.WriteBytes(p+32, []byte("abc"))
	if string(d.ReadBytes(p+32, 3)) != "abc" {
		t.Error("bytes round trip failed")
	}
}

// launchOne runs a single-warp kernel and returns its result.
func launchOne(t *testing.T, d *Device, local int, kern func(w *Warp)) KernelResult {
	t.Helper()
	res, err := d.Launch(KernelConfig{Name: "test", Warps: 1, LocalBytesPerLane: local}, kern)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoadStoreGlobalPerLane(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(WarpSize * 8)
	res := launchOne(t, d, 0, func(w *Warp) {
		var addrs, vals Vec
		for l := 0; l < WarpSize; l++ {
			addrs[l] = uint64(p) + uint64(l*8)
			vals[l] = uint64(l * l)
		}
		w.StoreGlobal(FullMask, &addrs, 8, &vals)
		var back Vec
		w.LoadGlobal(FullMask, &addrs, 8, &back)
		for l := 0; l < WarpSize; l++ {
			if back[l] != uint64(l*l) {
				t.Errorf("lane %d: got %d", l, back[l])
			}
		}
	})
	if res.WarpInstrs[ILdGlobal] != 1 || res.WarpInstrs[IStGlobal] != 1 {
		t.Errorf("instr counts: ld=%d st=%d", res.WarpInstrs[ILdGlobal], res.WarpInstrs[IStGlobal])
	}
}

func TestMaskedLanesUntouched(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(WarpSize * 4)
	mask := Mask(0x0000ffff) // lanes 0-15 only
	launchOne(t, d, 0, func(w *Warp) {
		var addrs, vals Vec
		for l := 0; l < WarpSize; l++ {
			addrs[l] = uint64(p) + uint64(l*4)
			vals[l] = 7
		}
		w.StoreGlobal(mask, &addrs, 4, &vals)
	})
	for l := 0; l < WarpSize; l++ {
		got := d.ReadU32(p + Ptr(l*4))
		if l < 16 && got != 7 {
			t.Errorf("active lane %d not written", l)
		}
		if l >= 16 && got != 0 {
			t.Errorf("masked lane %d was written: %d", l, got)
		}
	}
}

func TestCoalescingContiguous(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(4096)
	res := launchOne(t, d, 0, func(w *Warp) {
		var addrs Vec
		for l := 0; l < WarpSize; l++ {
			addrs[l] = uint64(p) + uint64(l*4)
		}
		w.LoadGlobal(FullMask, &addrs, 4, new(Vec))
	})
	// 32 lanes x 4B contiguous = 128B = 4 sectors of 32B.
	if res.GlobalSectors != 4 {
		t.Errorf("contiguous 4B loads: %d sectors, want 4", res.GlobalSectors)
	}
}

func TestCoalescingStrided(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(WarpSize * 64)
	res := launchOne(t, d, 0, func(w *Warp) {
		var addrs Vec
		for l := 0; l < WarpSize; l++ {
			addrs[l] = uint64(p) + uint64(l*64) // one sector apart
		}
		w.LoadGlobal(FullMask, &addrs, 4, new(Vec))
	})
	if res.GlobalSectors != 32 {
		t.Errorf("strided loads: %d sectors, want 32", res.GlobalSectors)
	}
}

func TestCoalescingSameAddress(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(64)
	res := launchOne(t, d, 0, func(w *Warp) {
		addrs := Splat(uint64(p))
		w.LoadGlobal(FullMask, &addrs, 8, new(Vec))
	})
	if res.GlobalSectors != 1 {
		t.Errorf("broadcast load: %d sectors, want 1", res.GlobalSectors)
	}
}

func TestCoalescingSectorStraddle(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(128)
	res := launchOne(t, d, 0, func(w *Warp) {
		addrs := Splat(uint64(p) + 28) // 8B access crossing a 32B boundary
		w.LoadGlobal(LaneMask(0), &addrs, 8, new(Vec))
	})
	if res.GlobalSectors != 2 {
		t.Errorf("straddling load: %d sectors, want 2", res.GlobalSectors)
	}
}

func TestAtomicCASSemantics(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(8)
	d.WriteU64(p, 0) // empty slot
	var old Vec
	launchOne(t, d, 0, func(w *Warp) {
		addrs := Splat(uint64(p))
		cmp := Splat(0)
		var vals Vec
		for l := 0; l < WarpSize; l++ {
			vals[l] = uint64(100 + l)
		}
		w.AtomicCAS(FullMask, &addrs, &cmp, &vals, 8, &old)
	})
	// Lane 0 wins deterministically; all later lanes observe lane 0's value.
	if old[0] != 0 {
		t.Errorf("winning lane saw %d, want 0", old[0])
	}
	for l := 1; l < WarpSize; l++ {
		if old[l] != 100 {
			t.Errorf("lane %d saw %d, want 100", l, old[l])
		}
	}
	if d.ReadU64(p) != 100 {
		t.Errorf("final value %d, want 100", d.ReadU64(p))
	}
}

func TestAtomicAdd(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(8)
	launchOne(t, d, 0, func(w *Warp) {
		addrs := Splat(uint64(p))
		delta := Splat(1)
		w.AtomicAdd(FullMask, &addrs, &delta, 8)
	})
	if d.ReadU64(p) != WarpSize {
		t.Errorf("after 32 atomic adds: %d", d.ReadU64(p))
	}
}

func TestShflBroadcast(t *testing.T) {
	d := testDevice()
	launchOne(t, d, 0, func(w *Warp) {
		var vals Vec
		for l := range vals {
			vals[l] = uint64(l)
		}
		got := w.Shfl(FullMask, &vals, 5)
		for l := 0; l < WarpSize; l++ {
			if got[l] != 5 {
				t.Errorf("lane %d: shfl got %d, want 5", l, got[l])
			}
		}
	})
}

// Ballot evaluates pred across active lanes and returns the vote mask
// (__ballot_sync). No kernel of the pipeline votes with it, so it lives here,
// with the test and the differential oracle that exercise the IBallot class.
func (w *Warp) Ballot(mask Mask, pred func(lane int) bool) Mask {
	w.ExecN(IBallot, mask, 1)
	var out Mask
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if pred(lane) {
			out |= LaneMask(lane)
		}
	}
	return out
}

func TestBallot(t *testing.T) {
	d := testDevice()
	launchOne(t, d, 0, func(w *Warp) {
		m := w.Ballot(FullMask, func(l int) bool { return l%2 == 0 })
		if m != 0x55555555 {
			t.Errorf("ballot = %#x, want 0x55555555", m)
		}
		m = w.Ballot(Mask(0xff), func(l int) bool { return true })
		if m != 0xff {
			t.Errorf("masked ballot = %#x, want 0xff", m)
		}
	})
}

func TestLocalMemoryLaneIsolation(t *testing.T) {
	d := testDevice()
	launchOne(t, d, 16, func(w *Warp) {
		offs := Splat(0)
		var vals Vec
		for l := range vals {
			vals[l] = uint64(l + 1)
		}
		w.StoreLocal(FullMask, &offs, 8, &vals)
		var back Vec
		w.LoadLocal(FullMask, &offs, 8, &back)
		for l := 0; l < WarpSize; l++ {
			if back[l] != uint64(l+1) {
				t.Errorf("lane %d read %d, want %d (lanes share local memory?)", l, back[l], l+1)
			}
		}
	})
}

func TestExecCounters(t *testing.T) {
	d := testDevice()
	res := launchOne(t, d, 0, func(w *Warp) {
		w.Exec(IInt, FullMask)
		w.ExecN(IFP, Mask(0xf), 3) // 4 active lanes, 3 instructions
	})
	if res.WarpInstrs[IInt] != 1 || res.ThreadInstrs[IInt] != 32 {
		t.Errorf("int counters: %d/%d", res.WarpInstrs[IInt], res.ThreadInstrs[IInt])
	}
	if res.WarpInstrs[IFP] != 3 || res.ThreadInstrs[IFP] != 12 {
		t.Errorf("fp counters: %d/%d", res.WarpInstrs[IFP], res.ThreadInstrs[IFP])
	}
	if res.PredicatedOff != 3*28 {
		t.Errorf("predicated-off = %d, want 84", res.PredicatedOff)
	}
	ratio := res.NonPredicatedRatio()
	want := float64(32+12) / float64(4*32)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("non-predicated ratio %.3f, want %.3f", ratio, want)
	}
}

func TestLaunchParallelMatchesSequential(t *testing.T) {
	run := func(seq bool) ([]byte, Stats) {
		d := testDevice()
		p, _ := d.Malloc(1024 * 8)
		res, err := d.Launch(KernelConfig{Name: "fill", Warps: 32, Sequential: seq}, func(w *Warp) {
			var addrs, vals Vec
			for l := 0; l < WarpSize; l++ {
				addrs[l] = uint64(p) + uint64((w.ID*WarpSize+l)*8)
				vals[l] = uint64(w.ID*1000 + l)
			}
			w.StoreGlobal(FullMask, &addrs, 8, &vals)
			w.Exec(IInt, FullMask)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.ReadBytes(p, 1024*8), res.Stats
	}
	memSeq, statsSeq := run(true)
	memPar, statsPar := run(false)
	if string(memSeq) != string(memPar) {
		t.Error("parallel launch produced different memory contents")
	}
	if statsSeq.TotalWarpInstrs() != statsPar.TotalWarpInstrs() ||
		statsSeq.GlobalSectors != statsPar.GlobalSectors {
		t.Error("parallel launch produced different counters")
	}
	if statsSeq.Warps != 32 {
		t.Errorf("warps = %d, want 32", statsSeq.Warps)
	}
}

func TestTimeModelBounds(t *testing.T) {
	cfg := V100()

	// Tiny grid, long dependent chain: latency bound.
	lat := Stats{Warps: 1, MaxSerialMemChain: 1 << 20}
	lat.WarpInstrs[IInt] = 10
	_, bound := timeModel(cfg, &lat)
	if bound != "latency" {
		t.Errorf("tiny-grid bound = %s, want latency", bound)
	}

	// Huge instruction count, no memory: issue bound.
	issue := Stats{Warps: 1 << 20}
	issue.WarpInstrs[IInt] = 1 << 40
	_, bound = timeModel(cfg, &issue)
	if bound != "issue" {
		t.Errorf("compute-heavy bound = %s, want issue", bound)
	}

	// Huge streaming traffic: bandwidth bound.
	bw := Stats{Warps: 1 << 20, GlobalSectors: 1 << 40}
	bw.WarpInstrs[IInt] = 1
	_, bound = timeModel(cfg, &bw)
	if bound != "bandwidth" {
		t.Errorf("traffic-heavy bound = %s, want bandwidth", bound)
	}

	// Nearly empty kernel: launch overhead dominates.
	empty := Stats{Warps: 1}
	empty.WarpInstrs[IInt] = 1
	d, bound := timeModel(cfg, &empty)
	if bound != "launch" {
		t.Errorf("empty-kernel bound = %s, want launch", bound)
	}
	if d < cfg.KernelLaunchOverhead {
		t.Errorf("time %v below launch overhead", d)
	}
}

func TestTimeModelMoreWorkMoreTime(t *testing.T) {
	cfg := V100()
	small := Stats{Warps: 100, GlobalSectors: 1000, MaxSerialMemChain: 1000}
	small.WarpInstrs[IInt] = 100000
	big := small
	big.WarpInstrs[IInt] *= 10
	big.GlobalSectors *= 10
	big.Warps *= 10
	tSmall, _ := timeModel(cfg, &small)
	tBig, _ := timeModel(cfg, &big)
	if tBig < tSmall {
		t.Errorf("10x work took less time: %v vs %v", tBig, tSmall)
	}
}

func TestTransferTime(t *testing.T) {
	d := testDevice()
	if d.TransferTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	t1 := d.TransferTime(1 << 20)
	t2 := d.TransferTime(2 << 20)
	if t2 <= t1 {
		t.Error("transfer time not monotone in size")
	}
}

func TestInstrClassString(t *testing.T) {
	if IInt.String() != "int" || ILdGlobal.String() != "ld.global" {
		t.Error("class names wrong")
	}
	if InstrClass(99).String() != "unknown" {
		t.Error("out-of-range class should be unknown")
	}
}

func BenchmarkLaunchHashProbe(b *testing.B) {
	d := testDevice()
	p, _ := d.Malloc(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.Launch(KernelConfig{Name: "probe", Warps: 64}, func(w *Warp) {
			var addrs Vec
			for l := 0; l < WarpSize; l++ {
				addrs[l] = uint64(p) + uint64((w.ID*131+l*37)%(1<<20-8))
			}
			for step := 0; step < 16; step++ {
				var v Vec
				w.LoadGlobal(FullMask, &addrs, 8, &v)
				for l := 0; l < WarpSize; l++ {
					addrs[l] = uint64(p) + (v[l]*2654435761+uint64(l))%(1<<20-8)
				}
				w.Exec(IInt, FullMask)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
