package figures

import (
	"math"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/simt"
)

// TestLedgerRender pins the ledger's rules on a report with every host-clock
// field set: those fields give no line, names follow the JSON paths, each
// line's clock follows clockOf's rule, integers print whole and other
// numbers at nine significant digits, and the lines sort by name.
func TestLedgerRender(t *testing.T) {
	res := &pipeline.Result{Bins: []pipeline.RoundBins{{K: 21, Zero: 3, Small: 2, Large: 1}}}
	res.Timings.Wall[pipeline.StageKmerAnalysis] = 7 * time.Millisecond
	res.Work.GPUKernelTime = 900 * time.Microsecond
	res.Work.GPUKernels = make([]simt.KernelResult, 2)
	rep := &dist.Report{
		Ranks: 2, Rounds: 1, ShardPolicy: dist.ShardComponent, Components: []int{4},
		ComponentPassTime: time.Millisecond, Wall: 3 * time.Millisecond,
		PerRank: []dist.RankStats{{Rank: 0, Alive: true, Busy: 2 * time.Millisecond}, {Rank: 1, Busy: time.Millisecond}},
	}
	var l ledger
	l.add("run", "w", report.Build(res, rep))
	l.add("cluster.x", "w", struct {
		Third float64
		Big   uint64
	}{1.0 / 3, math.MaxUint64})
	out, err := l.render()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, l := range lines {
		for _, host := range hostClocks {
			if strings.Contains(l, host) {
				t.Errorf("host clock in the ledger: %s", l)
			}
		}
		if i > 0 && strings.Fields(lines[i-1])[0] >= strings.Fields(l)[0] {
			t.Errorf("%q sorts before %q", lines[i-1], l)
		}
	}
	for _, want := range []string{
		"run.bins[0].bin1_zero 3 count w",
		"run.gpu.kernels 2 count w",
		"run.gpu.kernel_time_ns 900000 device-model w",
		"run.dist.components[0] 4 count w",
		"run.dist.wall_ns 3000000 fabric-model w",
		"run.dist.efficiency 0.5 fabric-model w",
		"run.dist.per_rank[0].alive true count w",
		"run.dist.per_rank[1].busy_ns 1000000 fabric-model w",
		"cluster.x.Third 0.333333333 cluster-model w",
		"cluster.x.Big 18446744073709551615 cluster-model w",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("no line %q in\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard_policy") {
		t.Error("a string field became a metric")
	}
}
