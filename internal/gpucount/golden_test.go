package gpucount

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/ledger"
	"mhm2sim/internal/ledger/ledgertest"
	"mhm2sim/internal/simt"
)

// goldenFixture is a fixed read set that reaches every branch of the
// extraction prologue: repeated reads (Bloom survivors), singletons, an
// ambiguous base, lowercase bases, a read shorter than every k under test,
// one exactly 33 long, and a batch boundary (reads longer than 32 windows).
func goldenFixture() [][]byte {
	rng := rand.New(rand.NewSource(1313))
	seqs := coveredReads(rng, 40, 3, 30, 120)
	seqs[3][50] = 'N'
	seqs[7][0] = 'N'
	seqs[11][119] = 'n'
	for i := 20; i < 60; i++ {
		seqs[5][i] |= 0x20 // lowercase run
	}
	seqs = append(seqs, []byte("ACGTACGTAC"), randReads(rng, 1, 33)[0])
	return seqs
}

// The goldens pin every modeled number of fixed counts as ledger lines.
// They were recorded at the parents of three changes that had to leave them
// all as they were: the rolling scanner (per-lane FromBytes+Canonical
// extraction before it), the ordered-commit launches, and the budget
// count's prologue record. The two budget goldens were regenerated once
// since, when one hash per window moved Bloom cells, pass membership and
// table slots on purpose; Count's did not move.

// TestGoldenCountAccounting pins Count's one launch at k = 21 (it takes
// one-word keys only, so k = 33 has no row).
func TestGoldenCountAccounting(t *testing.T) {
	_, res, err := Count(testDev(), goldenFixture(), 21)
	if err != nil {
		t.Fatal(err)
	}
	ledgertest.Golden(t, "testdata/count_accounting.golden.ledger", ledger.Render(ledger.Append(nil, "count.k21", "fixture", res)))
}

// goldenRuns are the budget counts the launch golden pins: two Bloom-on
// counts of eight passes with singletons, and two forced one-pass plans
// that overflow and re-plan, with singletons present, with and without the
// filter. A discarded pass's modeled time stays in KernelTime, and each of
// its warps stops charging at its first ErrTableFull.
var goldenRuns = []struct {
	name string
	k    int
	cfg  BudgetConfig
}{
	{"bloom.k21", 21, BudgetConfig{MemBudget: 1 << 18, MinCount: 2}},
	{"bloom.k33", 33, BudgetConfig{MemBudget: 1 << 18, MinCount: 2}},
	{"replan.bloom.k21", 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: 1}},
	{"replan.nobloom.k21", 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 1, Passes: 1}},
}

// budgetLines are a budget count's ledger lines: its stats under their
// report names, the counting launches' summed counters among them, the
// filter's false positives the report leaves out, and its table's
// distinct k-mers.
func budgetLines(lines []string, name string, tab interface{ Len() int }, st BudgetStats) []string {
	lines = ledger.Append(lines, name, "fixture", st)
	lines = ledger.Append(lines, name+".fp_inserted", "fixture", st.FPInserted)
	return ledger.Append(lines, name+".distinct", "fixture", tab.Len())
}

// TestGoldenBudgetAccounting pins TestCountBudgetSpillReplan's forced
// one-pass plan over reads without singletons.
func TestGoldenBudgetAccounting(t *testing.T) {
	seqs := coveredReads(rand.New(rand.NewSource(7)), 40, 2, 0, 120)
	tab, st, err := CountBudget(testDev(), seqs, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ledgertest.Golden(t, "testdata/budget_accounting.golden.ledger", ledger.Render(budgetLines(nil, "replan", tab, st)))
}

// TestGoldenBudgetLaunches pins goldenRuns: each count's stats and every
// launch's counters and modeled time, in launch order.
func TestGoldenBudgetLaunches(t *testing.T) {
	defer func(tap func(simt.KernelResult)) { launchTap = tap }(launchTap)
	var lines []string
	for _, run := range goldenRuns {
		var launches []simt.KernelResult
		launchTap = func(r simt.KernelResult) { launches = append(launches, r) }
		tab, st, err := CountBudget(testDev(), goldenFixture(), run.k, run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines = budgetLines(lines, run.name, tab, st)
		lines = ledger.Append(lines, run.name+".launch", "fixture", launches)
	}
	ledgertest.Golden(t, "testdata/budget_launches.golden.ledger", ledger.Render(lines))
}
