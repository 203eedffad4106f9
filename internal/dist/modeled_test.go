package dist_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/ledger"
	"mhm2sim/internal/report"
)

// TestModeledClocksIgnoreHostWorkers: a modeled number is a function of the
// input and the modeled machine, never of the goroutines the host gives a
// run. Three host ranks, and three device ranks of which an oom sends one to
// the host engine, render the same ledger at 1 and 16 pipeline workers and at
// GOMAXPROCS 1 and 2: the host engine prices a rank's work on the rank's
// modeled cores.
func TestModeledClocksIgnoreHostWorkers(t *testing.T) {
	specs := []struct {
		name   string
		host   bool
		faults string
	}{
		{"host-ranks=3", true, ""},
		{"device-ranks=3/oom=1", false, "oom=1"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			var want, wantAt string
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 16} {
					cfg := dist.DefaultConfig(3)
					cfg.Pipeline.Rounds = []int{21, 33}
					cfg.Pipeline.Workers = workers
					cfg.CPUAssembly = spec.host
					if spec.faults != "" {
						plan, err := faults.NewPlan(spec.faults, 42, 3, len(cfg.Pipeline.Rounds))
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
					}
					res, rep, err := dist.Run(dist.BuildPairs(t), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !spec.host && rep.Recovery.DeviceFallbacks == 0 {
						t.Fatal("the oom sent no rank to the host engine")
					}
					at := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)
					got := ledger.Render(ledger.Append(nil, "report", "fixture", report.Build(res, rep)))
					if want == "" {
						want, wantAt = got, at
					} else if got != want {
						t.Errorf("ledger at %s differs from %s:\n%s", at, wantAt, firstDiff(want, got))
					}
				}
			}
		})
	}
}

// firstDiff is the first line where two ledgers differ, from each.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			return "- " + la[i] + "\n+ " + lb[i]
		}
	}
	return fmt.Sprintf("%d lines against %d", len(la), len(lb))
}
