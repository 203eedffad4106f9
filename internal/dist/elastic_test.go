package dist

import (
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/faults"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// assertSameAssembly pins the headline invariant: contigs and scaffolds
// bit-identical to the fault-free single-rank baseline.
func assertSameAssembly(t *testing.T, label string, res, base *pipeline.Result) {
	t.Helper()
	if !reflect.DeepEqual(res.Contigs, base.Contigs) {
		t.Errorf("%s: contigs differ from fault-free single-rank run", label)
	}
	if !reflect.DeepEqual(res.Scaffolds, base.Scaffolds) {
		t.Errorf("%s: scaffolds differ from fault-free single-rank run", label)
	}
}

// TestElasticReportRendering: the human-readable report shows the
// elasticity line and marks joined ranks.
func TestElasticReportRendering(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testDistConfig(2)
	cfg.Elastic = "join@r1:1"
	_, rep, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "elasticity:") {
		t.Errorf("report lacks elasticity line:\n%s", s)
	}
	if !strings.Contains(s, "joined round 1") {
		t.Errorf("report lacks joined-round mark:\n%s", s)
	}
}

// TestElasticValidation: malformed schedules are rejected at
// Config.Validate, matching the error conventions of the other knobs.
func TestElasticValidation(t *testing.T) {
	for _, spec := range []string{"join@r9:1", "leave@r0:2", "join@1:1", "nonsense", "join@r0:0"} {
		cfg := testDistConfig(2).withDefaults()
		cfg.Elastic = spec
		if err := cfg.Validate(); err == nil {
			t.Errorf("elastic spec %q accepted", spec)
		}
	}
	cfg := testDistConfig(2).withDefaults()
	cfg.Elastic = "join@r1:2,leave@r1:1"
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid elastic spec rejected: %v", err)
	}
}

// stragglerPlan builds an explicit plan slowing rank 0 by factor in every
// round — the deterministic load imbalance the steal matrix runs under.
func stragglerPlan(ranks, rounds int, factor float64) *faults.Plan {
	p := &faults.Plan{Ranks: ranks, Rounds: rounds}
	for round := 0; round < rounds; round++ {
		p.Events = append(p.Events, faults.Event{
			Kind: faults.Straggler, Rank: 0, Round: round, Factor: factor,
		})
	}
	return p
}

// TestElasticStealTraffic: the steal and join-bootstrap exchanges appear
// in the per-stage fabric traffic like every other collective.
func TestElasticStealTraffic(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testDistConfig(4)
	cfg.Elastic = "join@r1:1"
	cfg.Faults = stragglerPlan(4, len(cfg.Pipeline.Rounds), 8)
	_, rep, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steal, bootstrap bool
	for _, st := range rep.Stages {
		if strings.HasPrefix(st.Stage, "work steal") && st.TotalBytes()+st.TotalLocalBytes() > 0 {
			steal = true
		}
		if strings.HasPrefix(st.Stage, "join bootstrap") && st.TotalBytes()+st.TotalLocalBytes() > 0 {
			bootstrap = true
		}
	}
	if !steal {
		t.Error("no work-steal exchange in the stage traffic")
	}
	if !bootstrap {
		t.Error("no join-bootstrap exchange in the stage traffic")
	}
}

// TestElasticDeviceSource: every device rank — the initial ones at start, a
// joiner at its round — draws its device from the run's one source, and a
// CPUAssembly run draws none.
func TestElasticDeviceSource(t *testing.T) {
	pairs := buildPairs(t)
	for _, tc := range []struct {
		cpu  bool
		want int
	}{{false, 4}, {true, 0}} {
		cfg := testDistConfig(2)
		cfg.Elastic = "join@r1:2"
		cfg.CPUAssembly = tc.cpu
		var drawn []*simt.Device
		cfg.Pipeline.Engine.Devices = func() (*simt.Device, error) {
			drawn = append(drawn, simt.NewDevice(simt.V100()))
			return drawn[len(drawn)-1], nil
		}
		_, rep, err := Run(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(drawn) != tc.want {
			t.Errorf("CPUAssembly=%v: source called %d times, want %d", tc.cpu, len(drawn), tc.want)
		}
		if rep.Elasticity.Joins != 2 {
			t.Errorf("CPUAssembly=%v: joins = %d, want 2", tc.cpu, rep.Elasticity.Joins)
		}
		for _, dev := range drawn {
			dev.Close()
		}
	}
}
