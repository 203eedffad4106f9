package locassm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mhm2sim/internal/gpuht"
)

// overlapWorkload builds a mix that populates all three bins.
func overlapWorkload(t *testing.T) []*CtgWithReads {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	var ctgs []*CtgWithReads
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0: // bin 1: no reads
			c, _ := makeCovered(rng, int64(i), 500, 150, 350, 70, 12)
			c.LeftReads, c.RightReads = nil, nil
			ctgs = append(ctgs, c)
		case 1: // bin 2: few reads
			c, _ := makeCovered(rng, int64(i), 500, 150, 350, 70, 60)
			c.LeftReads = nil
			if len(c.RightReads) > 4 {
				c.RightReads = c.RightReads[:4]
			}
			ctgs = append(ctgs, c)
		case 2: // bin 3: many reads
			c, _ := makeCovered(rng, int64(i), 600, 150, 380, 70, 6)
			ctgs = append(ctgs, c)
		}
	}
	return ctgs
}

func TestRunOverlappedMatchesPlainRun(t *testing.T) {
	ctgs := overlapWorkload(t)
	drv := newTestDriver(t, true, 0)

	plain, err := drv.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := drv.RunOverlapped(ctgs, DefaultCPUCost(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctgs {
		if !bytes.Equal(plain.Results[i].LeftExt, ov.Results[i].LeftExt) ||
			!bytes.Equal(plain.Results[i].RightExt, ov.Results[i].RightExt) {
			t.Fatalf("ctg %d: overlapped schedule changed the result", i)
		}
	}
}

func TestRunOverlappedSplitsBin2(t *testing.T) {
	ctgs := overlapWorkload(t)
	drv := newTestDriver(t, true, 0)

	// A slow CPU model: almost nothing finishes in the window, so nearly
	// all of bin 2 goes to the GPU.
	slow := CPUCost{InsertNS: 1e6}
	ovSlow, err := drv.RunOverlapped(ctgs, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fast CPU model: the CPU clears all of bin 2 inside the window.
	fast := CPUCost{}
	ovFast, err := drv.RunOverlapped(ctgs, fast, 64)
	if err != nil {
		t.Fatal(err)
	}
	bins := MakeBins(ctgs, 0)
	if ovFast.CPUContigs != len(bins.Small) {
		t.Errorf("fast CPU finished %d of %d bin-2 contigs", ovFast.CPUContigs, len(bins.Small))
	}
	if ovSlow.CPUContigs >= ovFast.CPUContigs {
		t.Errorf("slow CPU finished %d, fast %d — split not responsive to the model",
			ovSlow.CPUContigs, ovFast.CPUContigs)
	}
	// Results identical regardless of the split.
	for i := range ctgs {
		if !bytes.Equal(ovSlow.Results[i].RightExt, ovFast.Results[i].RightExt) {
			t.Fatalf("ctg %d: split changed the result", i)
		}
	}
}

func TestRunOverlappedAccounting(t *testing.T) {
	ctgs := overlapWorkload(t)
	drv := newTestDriver(t, true, 0)
	ov, err := drv.RunOverlapped(ctgs, DefaultCPUCost(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ov.GPU == nil || len(ov.GPU.Kernels) == 0 {
		t.Fatal("GPU accounting missing")
	}
	if ov.ModelTime <= 0 {
		t.Error("model time not positive")
	}
	// The overlap window is at least the bin-3 GPU time, so the total is
	// at least that too.
	if ov.ModelTime < ov.GPU.KernelTime/2 {
		t.Error("model time implausibly small")
	}

	// The merged accounting covers the bin-2 remainder run whole: abort the
	// schedule's last launch — the remainder run's, under a CPU model too
	// slow to clear bin 2 — and the re-split it costs must be counted.
	slow := CPUCost{InsertNS: 1e6}
	clean, err := drv.RunOverlapped(ctgs, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	var launches atomic.Int32
	drv.Cfg.FaultHook = func() error {
		if int(launches.Add(1)) == len(clean.GPU.Kernels) {
			return fmt.Errorf("injected: %w", gpuht.ErrTableFull)
		}
		return nil
	}
	faulted, err := drv.RunOverlapped(ctgs, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.GPU.Resplits != 0 || faulted.GPU.Resplits != 1 {
		t.Errorf("re-splits: clean %d, remainder launch aborted %d; want 0, 1", clean.GPU.Resplits, faulted.GPU.Resplits)
	}
	if got, want := len(faulted.GPU.Kernels), len(clean.GPU.Kernels)+1; got != want {
		t.Errorf("aborted launch re-ran as %d launches in all, want %d", got, want)
	}
}

func TestDefaultCPUTime(t *testing.T) {
	m := DefaultCPUCost()
	wc := WorkCounts{KmersInserted: 1_000_000, Lookups: 1000, WalkSteps: 1000, TableBuilds: 10}
	if m.Time(wc, 1) <= 0 {
		t.Fatal("zero time for real work")
	}
	if m.Time(wc, 4)*4 != m.Time(wc, 1) {
		t.Errorf("worker scaling wrong: %v vs %v", m.Time(wc, 4)*4, m.Time(wc, 1))
	}
	if m.Time(wc, 0) != m.Time(wc, 1) {
		t.Error("workers<1 should clamp to 1")
	}
}
