package gpucount

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

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

// The values below were recorded at the parent of the rolling-scanner
// change (per-lane FromBytes+Canonical extraction). They pin the claim that
// only host arithmetic changed: every simulated instruction, sector, modeled
// time, pass count and filter statistic is bit-identical.
// Count takes one-word keys only, so its k = 33 row does not exist.
const goldenCountK21 = "{Kernel:kmer_count_k21 WarpInstrs:[14201 0 6862 3955 6239 0 0 4777 0 0 0 608 0 0] ThreadInstrs:[326043 0 213757 84332 187152 0 0 61083 0 0 0 7966 0 0] PredicatedOff:292211 GlobalSectors:66961 LocalSectors:0 AtomicSectors:61070 Warps:304 MaxSerialMemChain:4840} time=24764"

func TestGoldenCountAccounting(t *testing.T) {
	_, res, err := Count(testDev(), goldenFixture(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v time=%d", res.Stats, res.Time); got != goldenCountK21 {
		t.Errorf("Count k=21 accounting moved:\n got %s\nwant %s", got, goldenCountK21)
	}
}

// goldenReplan is TestCountBudgetSpillReplan's forced one-pass plan,
// recorded at the parent of the ordered-commit launches (interleaved
// kernels on one goroutine). A pass that overflows is discarded but its
// modeled time stays in KernelTime, and each warp of it stops charging at
// its first ErrTableFull — the split kernels must reproduce that sum.
const goldenReplan = "kernels=30 kernelTime=1047650 passes=8 filtered=0 inserted=4000 fp=0 distinct=4000 replans=3"

func budgetLine(tab interface{ Len() int }, st BudgetStats) string {
	return fmt.Sprintf("kernels=%d kernelTime=%d passes=%d filtered=%d inserted=%d fp=%d distinct=%d",
		st.Kernels, st.KernelTime, st.Passes, st.FilteredSingletons, st.Inserted, st.FPInserted, tab.Len())
}

// TestGoldenBudgetAccounting pins goldenReplan. The fixture's Bloom-on
// counts are pinned, header and launches, by TestGoldenBudgetLaunches.
func TestGoldenBudgetAccounting(t *testing.T) {
	seqs := coveredReads(rand.New(rand.NewSource(7)), 40, 2, 0, 120)
	tab, st, err := CountBudget(testDev(), seqs, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%s replans=%d", budgetLine(tab, st), st.SpillReplans); got != goldenReplan {
		t.Errorf("forced re-plan accounting moved:\n got %s\nwant %s", got, goldenReplan)
	}
}

// goldenLaunchRuns are the counts whose every launch testdata/
// budget_launches.golden pins, as recorded at the parent of the prologue
// record: two Bloom-on counts of eight passes with singletons, and two
// forced re-plans with singletons present, with and without the filter. In
// the re-plans the record is filled by a launch whose pass is discarded, and
// each plan stores its own partition.
var goldenLaunchRuns = []struct {
	name string
	k    int
	cfg  BudgetConfig
}{
	{"bloom k=21", 21, BudgetConfig{MemBudget: 1 << 18, MinCount: 2}},
	{"bloom k=33", 33, BudgetConfig{MemBudget: 1 << 18, MinCount: 2}},
	{"replan bloom k=21", 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: 1}},
	{"replan nobloom k=21", 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 1, Passes: 1}},
}

// TestGoldenBudgetLaunches pins every launch's KernelResult (counters and
// modeled time) of goldenLaunchRuns, one line per launch under a line per run.
func TestGoldenBudgetLaunches(t *testing.T) {
	want, err := os.ReadFile("testdata/budget_launches.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer func(tap func(simt.KernelResult)) { launchTap = tap }(launchTap)
	var got strings.Builder
	for _, run := range goldenLaunchRuns {
		var lines []string
		launchTap = func(r simt.KernelResult) { lines = append(lines, fmt.Sprintf("%+v time=%d", r.Stats, r.Time)) }
		tab, st, err := CountBudget(testDev(), goldenFixture(), run.k, run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "# %s: %s replans=%d\n", run.name, budgetLine(tab, st), st.SpillReplans)
		for _, l := range lines {
			got.WriteString(l + "\n")
		}
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("launch line %d moved:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d launch lines, want %d", len(g), len(w))
}
