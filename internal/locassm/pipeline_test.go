package locassm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func modeDriver(t *testing.T, warpPerTable bool, budget int64, mode DriverMode) *Driver {
	t.Helper()
	d, err := NewDriver(testDev(), GPUConfig{
		Config:       testConfig(),
		WarpPerTable: warpPerTable,
		MemBudget:    budget,
		Mode:         mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPipelinedMatchesSequential asserts the tentpole invariant: the
// pipelined driver's results, kernel list, and modeled times are
// bit-identical to the sequential reference path, for both kernel
// versions, across seeds, with a budget tight enough to force several
// batches per side.
func TestPipelinedMatchesSequential(t *testing.T) {
	for _, warpPerTable := range []bool{false, true} {
		version := "v1"
		if warpPerTable {
			version = "v2"
		}
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", version, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(8000 + seed))
				ctgs := randomWorkload(rng, 20)

				seq, err := modeDriver(t, warpPerTable, 1<<19, ModeSequential).Run(ctgs)
				if err != nil {
					t.Fatal(err)
				}
				pipe, err := modeDriver(t, warpPerTable, 1<<19, ModePipelined).Run(ctgs)
				if err != nil {
					t.Fatal(err)
				}

				if pipe.Batches != seq.Batches {
					t.Errorf("batches %d vs %d", pipe.Batches, seq.Batches)
				}
				if pipe.Batches < 2 {
					t.Errorf("budget not tight enough to pipeline: %d batches", pipe.Batches)
				}
				if !reflect.DeepEqual(pipe.Results, seq.Results) {
					t.Error("pipelined results differ from sequential")
				}
				if !reflect.DeepEqual(pipe.Kernels, seq.Kernels) {
					t.Error("kernel list (names, counters, modeled times) differs")
				}
				if pipe.KernelTime != seq.KernelTime {
					t.Errorf("kernel time %v vs %v", pipe.KernelTime, seq.KernelTime)
				}
				if pipe.TransferTime != seq.TransferTime {
					t.Errorf("transfer time %v vs %v", pipe.TransferTime, seq.TransferTime)
				}
			})
		}
	}
}

// TestDriverLeavesDeviceEmpty: a run takes its two slabs from an empty heap
// and gives both back, in either mode — on a workload with several batches
// on each side, so both slabs were reused.
func TestDriverLeavesDeviceEmpty(t *testing.T) {
	ctgs := randomWorkload(rand.New(rand.NewSource(8300)), 20)
	for _, mode := range []DriverMode{ModeSequential, ModePipelined} {
		d := modeDriver(t, true, 1<<19, mode)
		res, err := d.Run(ctgs)
		if err != nil {
			t.Fatal(err)
		}
		sides := map[string]int{}
		for _, k := range res.Kernels {
			sides[strings.Split(k.Kernel, "_")[1]]++
		}
		if sides["left"] < 2 || sides["right"] < 2 {
			t.Fatalf("mode %d: workload not two-sided and multi-batch: %v", mode, sides)
		}
		if n := d.Dev.InUse(); n != 0 {
			t.Errorf("mode %d: %d bytes still allocated after Run", mode, n)
		}
	}
}

// TestPipelinedRepeatable re-runs the pipelined driver on one workload and
// checks modeled times never depend on goroutine interleaving.
func TestPipelinedRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(8100))
	ctgs := randomWorkload(rng, 16)
	first, err := modeDriver(t, true, 1<<19, ModePipelined).Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := modeDriver(t, true, 1<<19, ModePipelined).Run(ctgs)
		if err != nil {
			t.Fatal(err)
		}
		if again.KernelTime != first.KernelTime || again.TransferTime != first.TransferTime {
			t.Fatalf("run %d: modeled times drifted: %v/%v vs %v/%v",
				i, again.KernelTime, again.TransferTime, first.KernelTime, first.TransferTime)
		}
		if !reflect.DeepEqual(again.Results, first.Results) {
			t.Fatalf("run %d: results drifted", i)
		}
	}
}

// TestPipelinedOverlappingBatchesRace exists for the -race runs in CI: it
// keeps many batches in flight on both sides at once (tight budget, both
// sides populated), and runs two independent drivers concurrently so the
// shared staging-arena pool and warp pools are exercised under contention.
func TestPipelinedOverlappingBatchesRace(t *testing.T) {
	rng := rand.New(rand.NewSource(8200))
	ctgs := randomWorkload(rng, 24)
	cpu, err := RunCPU(ctgs, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(warpPerTable bool) {
			defer wg.Done()
			gpu, err := modeDriver(t, warpPerTable, 1<<19, ModePipelined).Run(ctgs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range ctgs {
				if cpu.Results[i].Iters != gpu.Results[i].Iters {
					t.Errorf("ctg %d iters %d vs %d", i, cpu.Results[i].Iters, gpu.Results[i].Iters)
				}
			}
		}(w == 0)
	}
	wg.Wait()
}
