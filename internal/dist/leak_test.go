package dist

import (
	goruntime "runtime"
	"testing"
	"time"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
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

// TestRunsLeaveNothingBehind: a run's devices come from one source. The
// default one makes fresh devices and the run closes them (the gpu and
// multigpu engines', dist's rank devices and the budget-counting device). A
// device left open keeps its warp pool parked, which pins the arena: before
// the rule, four budget runs in one process went 4 → 10 goroutines and
// 13 → 45 MB of live heap. A supplied source keeps its devices across runs, as the
// daemon's pool does: every run leaves them launchable and FreeAll'd. Five
// more runs of each kind must leave goroutines and live heap flat.
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
	// kept is the supplied source's pool: made on demand, handed out in
	// order from the start again by every run, closed by the subtest.
	var kept []*simt.Device
	supply := func(spec *locassm.EngineSpec) {
		next := 0
		spec.Devices = func() (*simt.Device, error) {
			if next == len(kept) {
				kept = append(kept, simt.NewDevice(simt.V100()))
			}
			next++
			return kept[next-1], nil
		}
	}
	pipe := func(name string, budget int64, supplied bool) func() error {
		return func() error {
			cfg := distConfig(1).Pipeline
			cfg.Engine.Name, cfg.MemBudget = name, budget
			if supplied {
				supply(&cfg.Engine)
			}
			_, err := pipeline.Run(pairs, cfg)
			return err
		}
	}
	dist := func(supplied bool) func() error {
		return func() error {
			cfg := distConfig(4)
			cfg.Pipeline.MemBudget = budget
			cfg.Elastic = "join@r0:1" // a joiner draws from the same source
			if supplied {
				supply(&cfg.Pipeline.Engine)
			}
			_, _, err := Run(pairs, cfg)
			return err
		}
	}
	for _, tc := range []struct {
		name     string
		run      func() error
		supplied int // devices the run draws from a supplied source
	}{
		{"cpu+budget", pipe(locassm.EngineCPU, budget, false), 0},
		{"gpu", pipe(locassm.EngineGPU, 0, false), 0},
		{"multigpu", pipe(locassm.EngineMultiGPU, 0, false), 0},
		{"dist+budget", dist(false), 0},
		{"cpu+budget/supplied", pipe(locassm.EngineCPU, budget, true), 1},
		{"gpu/supplied", pipe(locassm.EngineGPU, 0, true), 1},
		{"multigpu/supplied", pipe(locassm.EngineMultiGPU, 0, true), locassm.DefaultNodeGPUs},
		{"dist+budget/supplied", dist(true), 6}, // 4 ranks, the joiner, the counting device
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
			if tc.supplied > 0 && len(kept) != tc.supplied {
				t.Errorf("the run drew %d devices from its source, want %d", len(kept), tc.supplied)
			}
			for i, dev := range kept {
				_, err := dev.Launch(simt.KernelConfig{Name: "probe", Warps: 2}, func(*simt.Warp) {})
				if err != nil || dev.InUse() != 0 {
					t.Errorf("supplied device %d after the runs: launch %v, %d bytes in use", i, err, dev.InUse())
				}
				dev.Close()
			}
			kept = nil
		})
	}
}
