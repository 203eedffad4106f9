package simt

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Ordered-commit launches (KernelConfig.Commit, DESIGN.md §12 "Ordered
// commit"). The oracle is the same two-half kernel with Sequential set:
// kern(w); Commit(w) back to back on the caller. CI runs this file with
// -race -cpu 1,2,4 -timeout 180s, so a hang fails fast; with one P the
// ordered form is the sequential loop, which is one of the cases.

// slotRec is what the test kernels keep in w.Scratch. A ring slot's record
// is reused by warp id+commitRing, id+2·commitRing, …; committed says the
// previous generation's Commit has run, which the hand-back must guarantee
// before the slot's next kern starts.
type slotRec struct {
	id        int
	sum       uint64
	committed bool
}

// logKernel is a two-half kernel whose commits are order-dependent: kern
// reads the warp's row of a read-only input region and leaves its sum in
// Scratch; Commit appends (id, sum) to a log shared by all warps — cursor
// word, then entries — and folds it into a running hash word. Any commit
// out of order, lost or doubled changes the bytes.
type logKernel struct {
	in, cursor, hash, log Ptr
	warps                 int
	order                 []int // warp ids in commit order (host side)
	bad                   atomic.Int32
}

func newLogKernel(t *testing.T, d *Device, warps int) *logKernel {
	t.Helper()
	k := &logKernel{warps: warps}
	var err error
	if k.in, err = d.Malloc(int64(max(warps, 1)) * WarpSize * 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warps*WarpSize; i++ {
		d.WriteU64(k.in+Ptr(8*i), uint64(i)*0x9e3779b97f4a7c15+7)
	}
	if k.cursor, err = d.Malloc(16 + int64(max(warps, 1))*16); err != nil {
		t.Fatal(err)
	}
	k.hash, k.log = k.cursor+8, k.cursor+16
	for p := k.cursor; p < k.log+Ptr(16*warps); p += 8 {
		d.WriteU64(p, 0)
	}
	return k
}

func (k *logKernel) kern(w *Warp) {
	r, _ := w.Scratch.(*slotRec)
	if r == nil {
		r = &slotRec{committed: true}
		w.Scratch = r
	}
	if !r.committed {
		k.bad.Add(1) // the slot's previous generation has not been committed
	}
	var addrs, vals Vec
	for l := 0; l < WarpSize; l++ {
		addrs[l] = uint64(k.in) + uint64((w.ID*WarpSize+l)*8)
	}
	w.LoadGlobal(FullMask, &addrs, 8, &vals)
	w.ExecN(IInt, FullMask, 1+w.ID%3)
	*r = slotRec{id: w.ID}
	for _, v := range vals {
		r.sum += v
	}
}

func (k *logKernel) commit(w *Warp) {
	r := w.Scratch.(*slotRec)
	if r.id != w.ID || r.committed {
		k.bad.Add(1) // someone else's record, or committed twice
	}
	r.committed = true
	k.order = append(k.order, w.ID)

	one := func(p Ptr) *Vec { v := Splat(uint64(p)); return &v }
	var cur, h Vec
	w.LoadGlobal(1, one(k.cursor), 8, &cur)
	w.LoadGlobal(1, one(k.hash), 8, &h)
	entry := k.log + Ptr(16*cur[0])
	id, sum := Splat(uint64(w.ID)), Splat(r.sum)
	w.StoreGlobal(1, one(entry), 8, &id)
	w.StoreGlobal(1, one(entry+8), 8, &sum)
	next, nh := Splat(cur[0]+1), Splat(h[0]*31+r.sum+uint64(w.ID))
	w.StoreGlobal(1, one(k.cursor), 8, &next)
	w.StoreGlobal(1, one(k.hash), 8, &nh)
	w.AtomicAdd(1, one(k.hash), &id, 8)
}

// run launches the kernel and returns what the comparison is over: the
// result and a digest of the shared log's bytes.
func (k *logKernel) run(d *Device, sequential bool) (KernelResult, string, error) {
	res, err := d.Launch(KernelConfig{Name: "log", Warps: k.warps, Sequential: sequential, Commit: k.commit}, k.kern)
	if err != nil {
		return res, "", err
	}
	if n := k.bad.Load(); n != 0 {
		return res, "", fmt.Errorf("%d hand-off violations (slot reused before its commit, or a record committed twice)", n)
	}
	if len(k.order) != k.warps {
		return res, "", fmt.Errorf("%d commits for %d warps", len(k.order), k.warps)
	}
	for i, id := range k.order {
		if id != i {
			return res, "", fmt.Errorf("commit %d was warp %d's; commits must run in warp order", i, id)
		}
	}
	return res, fmt.Sprintf("%x", sha256.Sum256(d.ReadBytes(k.cursor, 16+16*k.warps))), nil
}

var orderedSizes = []int{0, 1, commitChunk, commitChunk + 1, commitRing - 1, commitRing, commitRing + 1, 3*commitRing + 5}

func TestOrderedMatchesSequential(t *testing.T) {
	for _, warps := range orderedSizes {
		seqDev, ordDev := testDevice(), testDevice()
		want, wantMem, err := newLogKernel(t, seqDev, warps).run(seqDev, true)
		if err != nil {
			t.Fatalf("warps=%d sequential: %v", warps, err)
		}
		// Twice on one device: the second launch runs on the ring slots and
		// Scratch records the first one left behind.
		for round := 0; round < 2; round++ {
			ordDev.FreeAll()
			got, gotMem, err := newLogKernel(t, ordDev, warps).run(ordDev, false)
			if err != nil {
				t.Fatalf("warps=%d round %d: %v", warps, round, err)
			}
			if got != want {
				t.Errorf("warps=%d round %d: ordered result differs from sequential:\n got %+v\nwant %+v", warps, round, got, want)
			}
			if gotMem != wantMem {
				t.Errorf("warps=%d round %d: device memory differs from the sequential launch's", warps, round)
			}
		}
		seqDev.Close()
		ordDev.Close()
	}
}

// watchdog fails the test, with every goroutine's stack, if fn has not
// returned in time: an ordered launch that deadlocks must not stall CI.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("still running after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// TestOrderedConcurrentLaunchesOneDevice: the pool is shared, each launch has
// its own ring. Two goroutines keep ordered launches in flight on one device
// (disjoint regions) and each must see exactly the sequential result.
func TestOrderedConcurrentLaunchesOneDevice(t *testing.T) {
	const warps = 2*commitRing + 3
	ref := testDevice()
	want, wantMem, err := newLogKernel(t, ref, warps).run(ref, true)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	d := testDevice()
	defer d.Close()
	kernels := [2][]*logKernel{}
	for g := range kernels {
		for i := 0; i < 8; i++ {
			kernels[g] = append(kernels[g], newLogKernel(t, d, warps))
		}
	}
	watchdog(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for g := range kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range kernels[g] {
					if got, gotMem, err := k.run(d, false); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
					} else if got != want || gotMem != wantMem {
						t.Errorf("goroutine %d: concurrent ordered launch differs from the sequential one", g)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestOrderedRingBackPressure: warp 0's kern is slow while its successors
// are fast. The pool may run ahead by the ring and no further — when
// Commit(i) starts, no warp at or past i's chunk start + commitRing has
// started its kern — and everything still commits in order.
func TestOrderedRingBackPressure(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: the launch runs on the caller, there is no ring")
	}
	const warps = 3*commitRing + 5
	d := testDevice()
	defer d.Close()
	k := newLogKernel(t, d, warps)
	var maxStarted atomic.Int64
	var ahead atomic.Int32
	kern := func(w *Warp) {
		if w.ID == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		for {
			m := maxStarted.Load()
			if int64(w.ID) <= m || maxStarted.CompareAndSwap(m, int64(w.ID)) {
				break
			}
		}
		k.kern(w)
	}
	commit := func(w *Warp) {
		if limit := w.ID - w.ID%commitChunk + commitRing; maxStarted.Load() >= int64(limit) {
			ahead.Add(1)
		}
		k.commit(w)
	}
	watchdog(t, 60*time.Second, func() {
		if _, err := d.Launch(KernelConfig{Name: "slow0", Warps: warps, Commit: commit}, kern); err != nil {
			t.Error(err)
		}
	})
	if n := ahead.Load(); n != 0 {
		t.Errorf("%d commits saw a kern running more than the ring ahead", n)
	}
	if k.bad.Load() != 0 || len(k.order) != warps {
		t.Errorf("%d hand-off violations, %d of %d commits", k.bad.Load(), len(k.order), warps)
	}
	for i, id := range k.order {
		if id != i {
			t.Fatalf("commit %d was warp %d's", i, id)
		}
	}
}

// TestChargeStopsEarly: a commit half that stops at a snapshot taken by the
// kern half charges the kern half up to there only, and within a warp the
// dependent-memory chain adds (Stats.Add, across warps, takes the maximum).
func TestChargeStopsEarly(t *testing.T) {
	d := testDevice()
	defer d.Close()
	p, _ := d.Malloc(64)
	var addrs, v Vec
	for l := range addrs {
		addrs[l] = uint64(p)
	}
	run := func(kernLoads int, stop bool) KernelResult {
		var snap Stats
		res, err := d.Launch(KernelConfig{Name: "stop", Warps: 1, Commit: func(w *Warp) {
			kern := w.TakeStats()
			if w.Stats() != (Stats{}) {
				t.Error("TakeStats left charges behind")
			}
			w.LoadGlobal(FullMask, &addrs, 4, &v) // the commit half's own charge
			if stop {
				kern = snap
			}
			w.Charge(&kern)
		}}, func(w *Warp) {
			for i := 0; i < kernLoads; i++ {
				if i == 2 {
					snap = w.Stats()
				}
				w.LoadGlobal(FullMask, &addrs, 4, &v)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Stopping after two of five kern loads is the kernel that has only two.
	if got, want := run(5, true), run(2, false); got != want {
		t.Errorf("stopped warp charged\n got %+v\nwant %+v", got, want)
	}
	if full := run(5, false); full.MaxSerialMemChain != 6*run(0, false).MaxSerialMemChain {
		t.Errorf("chain of 5+1 loads is %d, want six times one load's", full.MaxSerialMemChain)
	}
}

func TestLaunchAfterCloseIsAnError(t *testing.T) {
	d := testDevice()
	nop := func(w *Warp) { w.Exec(IInt, FullMask) }
	if _, err := d.Launch(KernelConfig{Name: "warm", Warps: 4}, nop); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	for _, cfg := range []KernelConfig{
		{Name: "pool", Warps: 4},
		{Name: "ordered", Warps: commitRing, Commit: nop},
	} {
		if cfg.Commit != nil && runtime.GOMAXPROCS(0) < 2 {
			continue // runs on the caller
		}
		if _, err := d.Launch(cfg, nop); !errors.Is(err, ErrDeviceClosed) {
			t.Errorf("%s launch after Close: %v, want ErrDeviceClosed", cfg.Name, err)
		}
	}
	// Launches that never needed the pool still run.
	for _, cfg := range []KernelConfig{
		{Name: "seq", Warps: 4, Sequential: true},
		{Name: "one", Warps: 1},
		{Name: "seq+commit", Warps: commitRing, Sequential: true, Commit: nop},
	} {
		if _, err := d.Launch(cfg, nop); err != nil {
			t.Errorf("%s launch after Close: %v", cfg.Name, err)
		}
	}
	// A device closed before its first launch never starts a pool.
	fresh := testDevice()
	fresh.Close()
	if _, err := fresh.Launch(KernelConfig{Name: "pool", Warps: 4}, nop); !errors.Is(err, ErrDeviceClosed) {
		t.Errorf("launch on a never-used closed device: %v, want ErrDeviceClosed", err)
	}
}

// TestCloseConcurrentWithLaunches: Close racing launches of both pool forms
// yields results or ErrDeviceClosed — never a send on a closed channel.
func TestCloseConcurrentWithLaunches(t *testing.T) {
	nop := func(w *Warp) { w.Exec(IInt, FullMask) }
	for round := 0; round < 20; round++ {
		d := testDevice()
		watchdog(t, 60*time.Second, func() {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cfg := KernelConfig{Name: "pool", Warps: 2 * commitRing}
					if g%2 == 1 {
						cfg.Commit = nop
					}
					for i := 0; i < 50; i++ {
						res, err := d.Launch(cfg, nop)
						if err != nil && !errors.Is(err, ErrDeviceClosed) {
							t.Errorf("launch: %v", err)
						}
						if err == nil && res.Warps != uint64(cfg.Warps) {
							t.Errorf("launch ran %d of %d warps", res.Warps, cfg.Warps)
						}
					}
				}()
			}
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
			d.Close()
			wg.Wait()
		})
	}
}
