package locassm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// failFirstLaunches returns a FaultHook failing the first n launches with a
// recoverable table fault.
func failFirstLaunches(n int32) func() error {
	var left atomic.Int32
	left.Store(n)
	return func() error {
		if left.Add(-1) >= 0 {
			return fmt.Errorf("injected: %w", gpuht.ErrTableFull)
		}
		return nil
	}
}

// TestResplitRecoversAndMatches: a batch whose launch faults is split in
// half and retried; the final results must be bit-identical to a fault-free
// run, with the resplit counter visible in the result. Under the small
// budget each side stages more batches than it has arenas and two launches
// fault, so resplit halves wait on the arena free list while the pack stage
// holds arenas of its own.
func TestResplitRecoversAndMatches(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		ctgs, itemsPerBatch int
		faults              int32
	}{{12, 0, 1}, {40, 3, 2}} {
		ctgs := randomWorkload(rand.New(rand.NewSource(11)), tc.ctgs)
		cpu, err := RunCPU(ctgs, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(1 << 26)
		if tc.itemsPerBatch > 0 {
			var item int64
			for _, it := range buildSideItems(ctgs, &cfg, false) {
				item = max(item, planItem(it, &cfg).bytes())
			}
			budget = pipelineStreams * int64(tc.itemsPerBatch) * item
		}
		for _, mode := range []DriverMode{ModeSequential, ModePipelined} {
			for _, wpt := range []bool{true, false} {
				label := fmt.Sprintf("contigs=%d mode=%d wpt=%v", tc.ctgs, mode, wpt)
				drv := newTestDriver(t, wpt, budget)
				drv.Cfg.Mode = mode
				drv.Cfg.FaultHook = failFirstLaunches(tc.faults)
				gpu, err := drv.Run(ctgs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gpu.Resplits == 0 {
					t.Errorf("%s: fault injected but no resplit recorded", label)
				}
				t.Logf("%s: %d batches, %d resplits", label, gpu.Batches, gpu.Resplits)
				assertSameResults(t, label, ctgs, cpu, gpu)
			}
		}
	}
}

// TestResplitLastLaunchAccounted: aborting a run's last launch costs exactly
// one re-split and one extra launch (its two halves), and the run's
// accounting counts both.
func TestResplitLastLaunchAccounted(t *testing.T) {
	ctgs := randomWorkload(rand.New(rand.NewSource(14)), 12)
	drv := newTestDriver(t, true, 0)
	clean, err := drv.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	var launches atomic.Int32
	drv.Cfg.FaultHook = func() error {
		if int(launches.Add(1)) == len(clean.Kernels) {
			return fmt.Errorf("injected: %w", gpuht.ErrTableFull)
		}
		return nil
	}
	faulted, err := drv.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Resplits != 0 || faulted.Resplits != 1 {
		t.Errorf("re-splits: clean %d, last launch aborted %d; want 0, 1", clean.Resplits, faulted.Resplits)
	}
	if got, want := len(faulted.Kernels), len(clean.Kernels)+1; got != want {
		t.Errorf("aborted launch re-ran as %d launches in all, want %d", got, want)
	}
}

// TestResplitSurrendersWhenExhausted: a hook that fails every launch must
// make the driver give up with the underlying fault preserved, not loop
// forever.
func TestResplitSurrendersWhenExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ctgs := randomWorkload(rng, 8)
	drv := newTestDriver(t, true, 1<<26)
	drv.Cfg.FaultHook = func() error { return gpuht.ErrTableFull }
	_, err := drv.Run(ctgs)
	if err == nil {
		t.Fatal("driver succeeded with every launch faulting")
	}
	if !errors.Is(err, gpuht.ErrTableFull) {
		t.Errorf("surrender lost the fault type: %v", err)
	}
	if !strings.Contains(err.Error(), "re-split") {
		t.Errorf("surrender error does not mention re-splits: %v", err)
	}
}

// TestDeviceLostSurfacesUnrecovered: an injected device loss is not a table
// fault, so the driver must pass it straight up without re-splitting.
func TestDeviceLostSurfacesUnrecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctgs := randomWorkload(rng, 6)
	drv := newTestDriver(t, true, 1<<26)
	drv.Dev.InjectFault(nil)
	gpu, err := drv.Run(ctgs)
	if !errors.Is(err, simt.ErrDeviceLost) {
		t.Fatalf("run on lost device returned (%v, %v), want ErrDeviceLost", gpu, err)
	}
}
