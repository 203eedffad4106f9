package figures

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/cluster"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/ledger"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/simt"
)

// TestLedgerRender pins the ledger's rules on a report with every host-clock
// field set: a time.Duration gives no line at any depth, names follow the
// JSON paths (tags, "-", omitempty, promoted embedded fields), each clock type
// prints its label and any other number is a count, integers print whole and
// other numbers at nine significant digits, and the lines sort by name.
func TestLedgerRender(t *testing.T) {
	res := &pipeline.Result{Bins: []pipeline.RoundBins{{K: 21, Zero: 3, Small: 2, Large: 1}}}
	res.Timings.Wall[pipeline.StageKmerAnalysis] = 7 * time.Millisecond
	res.Work.GPUKernelTime = clock.Device(900 * time.Microsecond)
	res.Work.GPUKernels = make([]simt.KernelResult, 2)
	rep := &dist.Report{
		Ranks: 2, Rounds: 1, ShardPolicy: dist.ShardComponent, Components: []int{4},
		ComponentPassTime: time.Millisecond, Wall: clock.Machine(3 * time.Millisecond),
		CommTime: clock.Fabric(time.Millisecond),
		PerRank: []dist.RankStats{
			{Rank: 0, Alive: true, Busy: clock.Machine(2 * time.Millisecond)},
			{Rank: 1, Busy: clock.Machine(time.Millisecond), Comm: clock.Fabric(time.Millisecond)},
		},
	}
	type inner struct{ Deep int }
	lines := ledger.Append(nil, "run", "w", report.Build(res, rep))
	lines = ledger.Append(lines, "x", "w", struct {
		inner
		Third, Whole float64
		Big          uint64
		CPU          clock.CPUModel
		Sec          clock.Cluster
		Host         map[string][]time.Duration
		Skip         int `json:"-"`
		Gone         int `json:"gone,omitempty"`
	}{inner{1}, 1.0 / 3, 100, math.MaxUint64, 5, 1.5, map[string][]time.Duration{"a": {time.Second}}, 1, 0})
	out := ledger.Render(lines)
	lines = strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, l := range lines {
		for _, absent := range []string{"stages_ns", "total_ns", "component_pass_ns", "x.Host", "x.Skip", "x.gone"} {
			if strings.Contains(l, absent) {
				t.Errorf("%s in the ledger: %s", absent, l)
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
		"run.dist.wall_ns 3000000 machine-model w",
		"run.dist.comm_time_ns 1000000 fabric-model w",
		"run.dist.efficiency 0.5 count w",
		"run.dist.per_rank[0].alive true count w",
		"run.dist.per_rank[1].busy_ns 1000000 machine-model w",
		"run.dist.per_rank[1].comm_ns 1000000 fabric-model w",
		"x.Deep 1 count w",
		"x.Third 0.333333333 count w",
		"x.Whole 100 count w",
		"x.Big 18446744073709551615 count w",
		"x.CPU 5 cpu-model w",
		"x.Sec 1.5 cluster-model w",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("no line %q in\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard_policy") {
		t.Error("a string field became a metric")
	}
}

// TestLedgerSourcesTypeTheirClocks walks the types the ledger flattens and
// fails on a plain number whose Go or JSON name says it holds a time: such a
// field must carry its clock's type (or time.Duration, for a host clock), or
// the ledger prints it as a count.
func TestLedgerSourcesTypeTheirClocks(t *testing.T) {
	// base strips pointers, lists and maps down to their element type.
	base := func(typ reflect.Type) reflect.Type {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map; k = typ.Kind() {
			typ = typ.Elem()
		}
		return typ
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if typ = base(typ); typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			leaf := base(f.Type)
			_, typed := clock.Labels[leaf]
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			timed := strings.HasSuffix(key, "_ns")
			for _, suffix := range []string{"NS", "Time", "Sec", "Busy", "Wall"} {
				timed = timed || strings.HasSuffix(f.Name, suffix)
			}
			numeric := leaf.Kind() >= reflect.Int && leaf.Kind() <= reflect.Float64
			if timed && numeric && !typed && leaf != reflect.TypeFor[time.Duration]() {
				t.Errorf("%s.%s is a %s: give it its clock's type", typ, f.Name, leaf)
			}
			walk(leaf)
		}
	}
	for _, v := range []any{report.Report{}, dist.Report{}, locassm.Stats{}, RooflineResults{},
		cluster.LAPoint{}, cluster.PipelinePoint{}, cluster.Breakdown{}} {
		walk(reflect.TypeOf(v))
	}
}
