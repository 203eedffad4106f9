package dist

import (
	goruntime "runtime"
	"testing"
	"time"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
)

// settled returns the goroutine count and the live heap once both have
// stopped moving: closed warp pools' workers exit on their own schedule, and
// a device is collectable only after they have.
func settled() (goroutines int, heap uint64) {
	var ms goruntime.MemStats
	for i := 0; i < 50; i++ {
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		if n := goruntime.NumGoroutine(); n == goroutines && ms.HeapAlloc == heap {
			break
		} else {
			goroutines, heap = n, ms.HeapAlloc
		}
		time.Sleep(2 * time.Millisecond)
	}
	return goroutines, heap
}

// TestRunsLeaveNothingBehind: whoever creates a device because its caller
// supplied none closes it when the run ends (pipeline's budget-counting and
// -gpualn devices, the gpu and multigpu engines' own, dist's rank devices).
// A device left open keeps its warp pool parked, which pins the arena: before
// the rule, four budget runs in one process went 4 → 10 goroutines and 13 →
// 45 MB of live heap. Five more runs of each engine must leave both flat.
func TestRunsLeaveNothingBehind(t *testing.T) {
	// A tiny community and one round: the test is about what a run leaves
	// behind, and CI repeats it under -race at three core counts.
	preset := smallPreset()
	preset.Com.NumGenomes, preset.Com.MinGenomeLen, preset.Com.MaxGenomeLen = 2, 2_000, 3_000
	_, pairs, err := preset.Build()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	distConfig := func(ranks int) Config {
		cfg := testDistConfig(ranks)
		cfg.Pipeline.Rounds = []int{21}
		return cfg
	}
	pipe := func(name string, budget int64, gpuAln bool) func() error {
		return func() error {
			cfg := distConfig(1).Pipeline
			cfg.Engine.Name, cfg.MemBudget, cfg.UseGPUAln = name, budget, gpuAln
			_, err := pipeline.Run(pairs, cfg)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"cpu+budget", pipe(locassm.EngineCPU, budget, false)},
		{"gpu+gpualn", pipe(locassm.EngineGPU, 0, true)},
		{"multigpu", pipe(locassm.EngineMultiGPU, 0, false)},
		{"dist+budget", func() error {
			cfg := distConfig(4)
			cfg.Pipeline.MemBudget = budget
			cfg.Elastic = "join@r0:1" // a joiner's device from the default provider
			_, _, err := Run(pairs, cfg)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm: one-time allocations are not leaks
				t.Fatal(err)
			}
			g0, h0 := settled()
			for i := 0; i < 5; i++ {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
			}
			g1, h1 := settled()
			if g1 > g0 {
				t.Errorf("goroutines %d → %d over five runs", g0, g1)
			}
			// The parent leaked ≈ 10 MB a run; GC bookkeeping moves well under one.
			if h1 > h0+2<<20 {
				t.Errorf("live heap %.1f → %.1f MB over five runs", float64(h0)/(1<<20), float64(h1)/(1<<20))
			}
		})
	}
}
