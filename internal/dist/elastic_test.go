package dist

import (
	"fmt"
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

// TestElasticJoinMatchesSingleRank: converging elastic schedules — joins,
// join+leave mixes, with and without stealing, under both shard policies
// and in memory-budget mode — all yield bit-identical contigs and
// scaffolds to the fault-free single-rank run, with the elasticity
// counters visible in the report and the work record.
func TestElasticJoinMatchesSingleRank(t *testing.T) {
	pairs := buildPairs(t)
	base, _, err := Run(pairs, testDistConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Contigs) == 0 {
		t.Fatal("fault-free baseline produced no contigs")
	}

	// The budget variant is here for the elastic × budget path, not for the
	// counting passes themselves (gpucount's tests own those): one rank
	// count, at a budget that still splits every round's count into several
	// passes. At the 96 KiB floor it ran 720 passes per rank count and was
	// three quarters of tier-1's wall time.
	const minPassesPerRound = 3
	allRanks := []int{2, 4, 8}
	variants := []struct {
		name    string
		elastic string
		mutate  func(*Config)
		joins   int
		ranks   []int
	}{
		{"join", "join@r1:2", nil, 2, allRanks},
		{"join-round0", "join@r0:1", nil, 1, allRanks},
		{"join-leave", "join@r0:2,leave@r1:1", nil, 2, allRanks},
		{"join-nosteal", "join@r1:2", func(c *Config) { c.NoSteal = true }, 2, allRanks},
		{"join-component", "join@r1:1", func(c *Config) { c.ShardPolicy = ShardComponent }, 1, allRanks},
		{"join-budget", "join@r1:1", func(c *Config) { c.Pipeline.MemBudget = 4 << 20 }, 1, []int{4}},
	}
	for _, v := range variants {
		for _, n := range v.ranks {
			t.Run(fmt.Sprintf("%s/ranks=%d", v.name, n), func(t *testing.T) {
				cfg := testDistConfig(n)
				cfg.Elastic = v.elastic
				if v.mutate != nil {
					v.mutate(&cfg)
				}
				res, rep, err := Run(pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameAssembly(t, v.name, res, base)
				if cfg.Pipeline.MemBudget > 0 {
					if got, want := res.Work.KmerBudget.Passes, minPassesPerRound*len(cfg.Pipeline.Rounds); got < want {
						t.Errorf("budget run counted in %d passes over %d rounds, want ≥ %d: the budget no longer forces multi-pass counting",
							got, len(cfg.Pipeline.Rounds), want)
					}
				}
				if rep.Elasticity.Joins != v.joins {
					t.Errorf("report joins = %d, want %d", rep.Elasticity.Joins, v.joins)
				}
				if rep.Elasticity.RebalancedBytes == 0 {
					t.Error("joins admitted but no bootstrap bytes rebalanced")
				}
				wantEpochs := 1 + strings.Count(v.elastic, "@") // each join/leave is one epoch
				if strings.Contains(v.elastic, ":2") {
					wantEpochs++ // a count-2 entry is two membership changes
				}
				if rep.Elasticity.Epochs != wantEpochs {
					t.Errorf("epochs = %d, want %d (schedule %q)", rep.Elasticity.Epochs, wantEpochs, v.elastic)
				}
				if rep.Capacity != n+v.joins {
					t.Errorf("capacity = %d, want %d", rep.Capacity, n+v.joins)
				}
				// Joined ranks carry their round in the per-rank table.
				joined := 0
				for _, rs := range rep.PerRank {
					if rs.JoinedRound >= 0 {
						joined++
					}
				}
				if joined != v.joins {
					t.Errorf("%d ranks report a join round, want %d", joined, v.joins)
				}
			})
		}
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

// TestChaosStealMatrix is the acceptance-criteria matrix: an 8× straggler
// on rank 0 at N ∈ {2,4,8}, stealing on vs off. Output is bit-identical
// both ways (and to the fault-free single-rank run); with stealing the
// report shows nonzero steals and epochs and a strictly lower modeled
// round wall; at N=8 the improvement is at least the pinned 1.5×.
func TestChaosStealMatrix(t *testing.T) {
	pairs := buildPairs(t)
	base, _, err := Run(pairs, testDistConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 4, 8} {
		var walls [2]struct {
			steal, noSteal int64
		}
		for i, noSteal := range []bool{false, true} {
			cfg := testDistConfig(n)
			cfg.Faults = stragglerPlan(n, len(cfg.Pipeline.Rounds), 8)
			cfg.NoSteal = noSteal
			res, rep, err := Run(pairs, cfg)
			if err != nil {
				t.Fatalf("ranks=%d nosteal=%v: %v", n, noSteal, err)
			}
			assertSameAssembly(t, fmt.Sprintf("ranks=%d nosteal=%v", n, noSteal), res, base)
			if rep.Elasticity.Epochs == 0 {
				t.Errorf("ranks=%d nosteal=%v: zero epochs reported", n, noSteal)
			}
			if noSteal {
				if rep.Elasticity.Steals != 0 || rep.Elasticity.StolenBatches != 0 {
					t.Errorf("ranks=%d: stealing disabled but %d steals recorded", n, rep.Elasticity.Steals)
				}
			} else {
				if rep.Elasticity.Steals == 0 || rep.Elasticity.StolenBatches == 0 {
					t.Errorf("ranks=%d: straggler under stealing but steals=%d batches=%d",
						n, rep.Elasticity.Steals, rep.Elasticity.StolenBatches)
				}
				if rep.Elasticity.StealWall >= rep.Elasticity.NoStealWall {
					t.Errorf("ranks=%d: steal wall %v not below no-steal wall %v",
						n, rep.Elasticity.StealWall, rep.Elasticity.NoStealWall)
				}
			}
			walls[i].steal = int64(rep.Elasticity.StealWall)
			walls[i].noSteal = int64(rep.Elasticity.NoStealWall)
		}
		// The no-steal accounting of both runs agrees (same plan, same
		// costs), so the on/off comparison is apples-to-apples.
		if walls[0].noSteal != walls[1].noSteal {
			t.Errorf("ranks=%d: no-steal walls disagree across runs: %d vs %d",
				n, walls[0].noSteal, walls[1].noSteal)
		}
		if n == 8 {
			if speedup := float64(walls[0].noSteal) / float64(walls[0].steal); speedup < 1.5 {
				t.Errorf("ranks=8: steal speedup %.2fx below the 1.5x acceptance bar", speedup)
			}
		}
	}
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
