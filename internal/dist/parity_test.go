package dist

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
)

// The parity table: whole distributed runs, each compared with one cached
// fault-free single-rank run. A row is a point of ranks {2,3,4,8} × shard
// policy × rank substrate × fault schedule × elastic schedule × memory
// budget, and the rows are a pairwise covering set: for any two factors,
// every pair of their values is some row's (DESIGN.md §21). The one
// excluded point is an oom on host ranks without a budget, where there is
// no device to lose. Every row must reproduce the baseline's contigs and
// scaffolds, and checks what its factors promise: the fabric's accounting,
// the component map's counts, the host engine's work counts, each fault's
// recovery counter, the elastic schedule's joins and epochs, the budget's
// passes, and stealing's win over a straggler.
//
// Each row belongs to the test named in its test field. Those tests are
// one-line entry points that keep the suite's test IDs as they were before
// the table replaced their loops, and CI selects rows by them. A row sits
// under a name that names one of its factors (entryFactor).

// Fault and elastic schedules of the table.
const (
	crash     = "rank-crash=1"
	oom       = "oom=1"
	drop      = "drop=2,corrupt=1"
	straggler = "straggler8" // stragglerPlan's 8× straggler on rank 0 in every round
	join2     = "join@r1:2"
	join0     = "join@r0:1"
	joinLeave = "join@r0:2,leave@r1:1"
	// budget splits every round's count into at least three passes.
	budget            = 4 << 20
	minPassesPerRound = 3
)

type parityRow struct {
	test    string // the entry point that runs the row
	name    string // its subtest name; "" names it by its factors
	ranks   int
	shard   string
	host    bool
	faults  string
	elastic string
	budget  int64
}

var parityRows = []parityRow{
	{"TestDistMatchesSingleRank", "", 4, ShardComponent, false, "", "", 0},
	{"TestDistComponentMatchesSingleRank", "", 2, ShardComponent, true, drop, "", budget},
	{"TestDistCPUAssemblyMatchesGPU", "", 3, ShardHash, true, crash, "", 0},
	{"TestDistCPUAssemblyMatchesSingleRank", "", 3, ShardHash, true, "", joinLeave, 0},
	{"TestChaosInvariant", "", 3, ShardHash, false, drop, join0, 0},
	{"TestChaosInvariant", "", 8, ShardHash, false, oom, "", 0},
	{"TestDistComponentChaos", "", 3, ShardComponent, false, oom, join0, 0},
	{"TestChaosBudgetOOMSpill", "", 3, ShardHash, true, oom, joinLeave, budget},
	{"TestChaosStealMatrix", "", 8, ShardHash, false, straggler, "", 0},
	{"TestChaosStealMatrix", "", 3, ShardHash, false, straggler, join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join/ranks=2", 2, ShardHash, false, "", join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join/ranks=4", 4, ShardComponent, true, crash, join2, budget},
	{"TestElasticJoinMatchesSingleRank", "join/ranks=8", 8, ShardHash, true, drop, join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join-round0/ranks=2", 2, ShardComponent, true, straggler, join0, 0},
	{"TestElasticJoinMatchesSingleRank", "join-round0/ranks=4", 4, ShardHash, false, crash, join0, 0},
	{"TestElasticJoinMatchesSingleRank", "join-round0/ranks=8", 8, ShardHash, false, "", join0, budget},
	{"TestElasticJoinMatchesSingleRank", "join-leave/ranks=2", 2, ShardHash, false, crash, joinLeave, 0},
	{"TestElasticJoinMatchesSingleRank", "join-leave/ranks=4", 4, ShardComponent, true, drop, joinLeave, 0},
	{"TestElasticJoinMatchesSingleRank", "join-leave/ranks=8", 8, ShardComponent, false, straggler, joinLeave, 0},
	{"TestElasticJoinMatchesSingleRank", "join-component/ranks=2", 2, ShardComponent, false, oom, join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join-component/ranks=4", 4, ShardComponent, false, oom, join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join-component/ranks=8", 8, ShardComponent, true, crash, join2, 0},
	{"TestElasticJoinMatchesSingleRank", "join-budget/ranks=4", 4, ShardHash, false, straggler, join2, budget},
}

func TestDistMatchesSingleRank(t *testing.T)            { parity(t) }
func TestDistComponentMatchesSingleRank(t *testing.T)   { parity(t) }
func TestDistCPUAssemblyMatchesGPU(t *testing.T)        { parity(t) }
func TestDistCPUAssemblyMatchesSingleRank(t *testing.T) { parity(t) }
func TestChaosInvariant(t *testing.T)                   { parity(t) }
func TestDistComponentChaos(t *testing.T)               { parity(t) }
func TestChaosBudgetOOMSpill(t *testing.T)              { parity(t) }
func TestChaosStealMatrix(t *testing.T)                 { parity(t) }
func TestElasticJoinMatchesSingleRank(t *testing.T)     { parity(t) }

// entryFactor is the factor each entry point's name promises of its rows.
var entryFactor = map[string]func(parityRow) bool{
	"TestDistMatchesSingleRank":            func(parityRow) bool { return true },
	"TestDistComponentMatchesSingleRank":   func(r parityRow) bool { return r.shard == ShardComponent },
	"TestDistCPUAssemblyMatchesGPU":        func(r parityRow) bool { return r.host },
	"TestDistCPUAssemblyMatchesSingleRank": func(r parityRow) bool { return r.host },
	"TestChaosInvariant":                   func(r parityRow) bool { return r.faults != "" },
	"TestDistComponentChaos":               func(r parityRow) bool { return r.shard == ShardComponent && r.faults != "" },
	"TestChaosBudgetOOMSpill":              func(r parityRow) bool { return r.faults == oom && r.budget > 0 },
	"TestChaosStealMatrix":                 func(r parityRow) bool { return r.faults == straggler },
	"TestElasticJoinMatchesSingleRank":     func(r parityRow) bool { return r.elastic != "" },
}

// TestParityRowsArePairwise: for any two factors, every pair of their
// values is some row's, no row loses a device it does not have, and every
// entry point runs rows that carry the factor its name names.
func TestParityRowsArePairwise(t *testing.T) {
	levels := [][]any{{2, 3, 4, 8}, {ShardHash, ShardComponent}, {false, true},
		{"", crash, oom, drop, straggler}, {"", join2, join0, joinLeave}, {int64(0), int64(budget)}}
	factors := func(r parityRow) []any { return []any{r.ranks, r.shard, r.host, r.faults, r.elastic, r.budget} }
	seen := make(map[[4]any]bool)
	entries := make(map[string]bool)
	for _, r := range parityRows {
		if r.host && r.faults == oom && r.budget == 0 {
			t.Errorf("%s: an oom on host ranks without a budget has no device to take", r)
		}
		if carries := entryFactor[r.test]; carries == nil || !carries(r) {
			t.Errorf("%s: runs under %s, which does not name one of its factors", r, r.test)
		}
		entries[r.test] = true
		f := factors(r)
		for i := range f {
			for j := i + 1; j < len(f); j++ {
				seen[[4]any{i, f[i], j, f[j]}] = true
			}
		}
	}
	for i := range levels {
		for j := i + 1; j < len(levels); j++ {
			for _, a := range levels[i] {
				for _, b := range levels[j] {
					if !seen[[4]any{i, a, j, b}] {
						t.Errorf("no row pairs factor %d = %v with factor %d = %v", i, a, j, b)
					}
				}
			}
		}
	}
	for name := range entryFactor {
		if !entries[name] {
			t.Errorf("no parity row runs under %s", name)
		}
	}
}

// parity runs the rows of the calling test, in parallel with the other
// parallel tests of the package.
func parity(t *testing.T) {
	t.Parallel()
	pairs, base, _ := baseline(t)
	for _, row := range parityRows {
		if row.test != t.Name() {
			continue
		}
		t.Run(row.label(), func(t *testing.T) {
			t.Parallel()
			res, rep, err := Run(pairs, row.config(t))
			if err != nil {
				t.Fatalf("%s: %v", row, err)
			}
			row.check(t, base, res, rep)
		})
	}
}

func (r parityRow) label() string {
	if r.name != "" {
		return r.name
	}
	return strings.ReplaceAll(r.String(), " ", "/")
}

func (r parityRow) String() string {
	s := fmt.Sprintf("ranks=%d %s", r.ranks, r.shard)
	if r.host {
		s += " host-ranks"
	}
	for _, f := range []string{r.faults, r.elastic} {
		if f != "" {
			s += " " + f
		}
	}
	if r.budget > 0 {
		s += fmt.Sprintf(" budget=%dMiB", r.budget>>20)
	}
	return s
}

func (r parityRow) config(t *testing.T) Config {
	t.Helper()
	cfg := testDistConfig(r.ranks)
	cfg.ShardPolicy = r.shard
	cfg.CPUAssembly = r.host
	cfg.Elastic = r.elastic
	cfg.Pipeline.MemBudget = r.budget
	// Generous retry budget so colliding drop/corrupt events on one
	// exchange stay recoverable; the exhaustion path has its own test.
	cfg.Fabric.MaxRetries = 10
	switch r.faults {
	case "":
	case straggler:
		cfg.Faults = stragglerPlan(r.ranks, len(cfg.Pipeline.Rounds), 8)
	default:
		plan, err := faults.NewPlan(r.faults, 42, r.ranks, len(cfg.Pipeline.Rounds))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	return cfg
}

// check asserts what the row's factors promise of its run.
func (r parityRow) check(t *testing.T, base, res *pipeline.Result, rep *Report) {
	t.Helper()
	fail := func(format string, args ...any) { t.Errorf("%s: "+format, append([]any{r}, args...)...) }
	assertSameAssembly(t, r.String(), res, base)

	if bytes, msgs := commTotals(rep); rep.CommTime <= 0 || bytes <= 0 || msgs <= 0 {
		fail("comm accounting empty: %v, %d bytes, %d msgs", rep.CommTime, bytes, msgs)
	}
	// Virtual shards, not ranks, are the unit of batch planning: on device
	// ranks under the hash map and the driver's own budget, any rank count
	// and membership schedule launches the baseline's kernels. A device
	// lost to an oom runs its shards on the host instead.
	if !r.host && r.shard == ShardHash && r.budget == 0 && r.faults != oom {
		if !reflect.DeepEqual(res.Work.GPUKernels, base.Work.GPUKernels) || res.Work.GPUKernelTime != base.Work.GPUKernelTime {
			fail("%d launches in %v, single rank %d in %v", len(res.Work.GPUKernels), res.Work.GPUKernelTime,
				len(base.Work.GPUKernels), base.Work.GPUKernelTime)
		}
	}

	if r.shard == ShardComponent {
		if rep.ShardPolicy != ShardComponent || len(rep.Components) != rep.Rounds || rep.ComponentPassTime <= 0 {
			fail("report policy %q, %d component counts over %d rounds, pass time %v",
				rep.ShardPolicy, len(rep.Components), rep.Rounds, rep.ComponentPassTime)
		}
		for round, c := range rep.Components {
			if c <= 0 {
				fail("round %d: %d components", round, c)
			}
		}
	}

	if r.host {
		// The host engine reports no kernels, and work counts identical to
		// a single host rank's.
		if len(res.Work.GPUKernels) != 0 || res.Work.Locassm.KmersInserted == 0 || res.Work.Locassm.Lookups == 0 {
			fail("%d kernels, host work %+v", len(res.Work.GPUKernels), res.Work.Locassm)
		}
		if want := hostWork(t); res.Work.Locassm != want {
			fail("work counts %+v, single host rank %+v", res.Work.Locassm, want)
		}
		var busy int64
		for _, rs := range rep.PerRank {
			busy += int64(rs.Busy)
			if rs.Kernels != 0 {
				fail("rank %d reports %d kernels", rs.Rank, rs.Kernels)
			}
		}
		if busy == 0 {
			fail("zero modeled busy time")
		}
	}

	rec := rep.Recovery
	if r.faults != "" && !rec.Any() {
		fail("no recovery machinery fired")
	}
	// A leave evicts its rank as a crash does.
	joins, evictions := elasticCounts(r.elastic)
	if r.faults == crash {
		evictions++
	}
	if rec.Evictions != evictions || evictions > 0 && rec.RecoveredBytes == 0 {
		fail("%d evictions re-dealt %d bytes, want %d evictions", rec.Evictions, rec.RecoveredBytes, evictions)
	}
	alive := 0
	for _, rs := range rep.PerRank {
		if rs.Alive {
			alive++
		} else if rs.EvictedRound < 0 {
			fail("rank %d dead without an eviction round", rs.Rank)
		}
	}
	if alive != rep.Capacity-evictions {
		fail("%d ranks alive of %d after %d evictions", alive, rep.Capacity, evictions)
	}
	switch r.faults {
	case oom:
		if r.budget > 0 {
			// A budget run absorbs an OOM by shrinking the counting budget
			// and spilling into more passes, never by dropping a device.
			if rec.OOMReplans == 0 || rec.SpillPasses == 0 || rec.DeviceFallbacks != 0 {
				fail("budget oom: %d replans, %d spill passes, %d device fallbacks", rec.OOMReplans, rec.SpillPasses, rec.DeviceFallbacks)
			}
		} else if rec.DeviceFallbacks == 0 {
			fail("device fault scheduled but no host fallback recorded")
		}
	case drop:
		if rec.ExchangeRetries == 0 || rec.RetryTime <= 0 {
			fail("%d exchange retries costing %v", rec.ExchangeRetries, rec.RetryTime)
		}
	case straggler:
		es := rep.Elasticity
		if rec.Stragglers == 0 || es.Steals == 0 || es.StolenBatches == 0 || es.StealWall >= es.NoStealWall {
			fail("%d stragglers, %d steals of %d batches, steal wall %v, no-steal wall %v",
				rec.Stragglers, es.Steals, es.StolenBatches, es.StealWall, es.NoStealWall)
		}
		if r.ranks == 8 && r.elastic == "" && es.Speedup() < 1.5 {
			fail("steal speedup %.2fx below the 1.5x acceptance bar", es.Speedup())
		}
	}

	if r.budget > 0 {
		kb := res.Work.KmerBudget
		if got, want := kb.Passes, minPassesPerRound*len(res.Bins); got < want {
			fail("counted in %d passes, want ≥ %d: the budget no longer forces multi-pass counting", got, want)
		}
		if r.faults != oom && (rec.OOMReplans != 0 || rec.SpillPasses != 0) {
			fail("budget run without an oom recorded degradation: %+v", rec)
		}
	}

	es := rep.Elasticity
	if es.Epochs == 0 {
		fail("zero epochs reported")
	}
	if r.elastic == "" {
		return
	}
	if es.Joins != joins || es.RebalancedBytes == 0 {
		fail("%d joins rebalanced %d bytes, want %d joins", es.Joins, es.RebalancedBytes, joins)
	}
	if rep.Capacity != r.ranks+joins {
		fail("capacity %d, want %d", rep.Capacity, r.ranks+joins)
	}
	joined := 0
	for _, rs := range rep.PerRank {
		if rs.JoinedRound >= 0 {
			joined++
		}
	}
	if joined != joins {
		fail("%d ranks report a join round, want %d", joined, joins)
	}
	// Each join and each eviction is one membership epoch.
	if want := 1 + joins + evictions; es.Epochs != want {
		fail("epochs = %d, want %d", es.Epochs, want)
	}
}

// elasticCounts is how many ranks the table's schedule admits and retires.
func elasticCounts(spec string) (joins, leaves int) {
	switch spec {
	case join2:
		return 2, 0
	case join0:
		return 1, 0
	case joinLeave:
		return 2, 1
	}
	return 0, 0
}

// baseline is the fault-free single-rank run every parity row is compared
// with, run once per test binary, and the input every test of the package
// shares.
func baseline(t testing.TB) ([]dna.PairedRead, *pipeline.Result, *Report) {
	t.Helper()
	parityBase.once.Do(func() {
		parityBase.pairs = buildPairs(t)
		parityBase.res, parityBase.rep, parityBase.err = Run(parityBase.pairs, testDistConfig(1))
		if parityBase.err == nil && (len(parityBase.res.Contigs) == 0 || len(parityBase.res.Work.GPUKernels) == 0) {
			parityBase.err = fmt.Errorf("baseline run degenerate: %d contigs, %d kernels",
				len(parityBase.res.Contigs), len(parityBase.res.Work.GPUKernels))
		}
	})
	if parityBase.err != nil {
		t.Fatal(parityBase.err)
	}
	return parityBase.pairs, parityBase.res, parityBase.rep
}

// hostWork is a single host rank's local-assembly work counts, run once
// per test binary.
func hostWork(t testing.TB) locassm.WorkCounts {
	t.Helper()
	parityBase.hostOnce.Do(func() {
		cfg := testDistConfig(1)
		cfg.CPUAssembly = true
		var res *pipeline.Result
		if res, _, parityBase.hostErr = Run(buildPairs(t), cfg); parityBase.hostErr == nil {
			parityBase.host = res.Work.Locassm
		}
	})
	if parityBase.hostErr != nil {
		t.Fatal(parityBase.hostErr)
	}
	return parityBase.host
}

var parityBase struct {
	once  sync.Once
	pairs []dna.PairedRead
	res   *pipeline.Result
	rep   *Report
	err   error

	hostOnce sync.Once
	host     locassm.WorkCounts
	hostErr  error
}
