package gpucount

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/simt"
)

// coveredReads returns reads where every k-mer is seen at least twice
// (each unique read appears copies times), plus optional singleton reads
// whose k-mers are (almost all) seen once — bloom-filter fodder.
func coveredReads(rng *rand.Rand, unique, copies, singles, l int) [][]byte {
	base := randReads(rng, unique, l)
	out := make([][]byte, 0, unique*copies+singles)
	for c := 0; c < copies; c++ {
		out = append(out, base...)
	}
	out = append(out, randReads(rng, singles, l)...)
	return out
}

func hostFiltered(t *testing.T, seqs [][]byte, k int, minCount uint32) *dbg.Table {
	t.Helper()
	tab, err := dbg.Count(seqs, dbg.Config{K: k, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab.Filter(minCount)
	return tab
}

// tablesEqual compares two tables over every k-mer window of seqs plus
// total distinct size — together that is full equality.
func tablesEqual(t *testing.T, got, want *dbg.Table, seqs [][]byte, k int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("k=%d: %d distinct k-mers, want %d", k, got.Len(), want.Len())
	}
	for _, s := range seqs {
		kmer.ForEach(s, k, func(pos int, km kmer.Kmer) {
			gi, _, gok := got.Lookup(km)
			wi, _, wok := want.Lookup(km)
			if gok != wok {
				t.Fatalf("k=%d pos %d: presence mismatch (got %v, want %v)", k, pos, gok, wok)
			}
			if gok && gi != wi {
				t.Fatalf("k=%d pos %d: info mismatch: %+v vs %+v", k, pos, gi, wi)
			}
		})
	}
}

func TestPlanFor(t *testing.T) {
	for _, tc := range []struct {
		occ, k int
		budget int64
	}{
		{100, 21, MinMemBudget},
		{50_000, 21, 1 << 17},
		{50_000, 55, 1 << 17},
		{1_000_000, 33, 1 << 20},
		{0, 21, MinMemBudget},
	} {
		plan, err := PlanFor(tc.occ, tc.k, BudgetConfig{MemBudget: tc.budget, MinCount: 2})
		if err != nil {
			t.Fatalf("PlanFor(%+v): %v", tc, err)
		}
		if plan.Passes < 1 || plan.TableSlots < 3 {
			t.Fatalf("degenerate plan %+v for %+v", plan, tc)
		}
		eb := int64(entrySize(kmerWords(tc.k)))
		footprint := int64(plan.TableSlots)*eb + int64(plan.BloomCells)*4
		if footprint > tc.budget {
			t.Fatalf("plan %+v footprint %d exceeds budget %d", plan, footprint, tc.budget)
		}
		if plan.BloomCells == 0 || plan.BloomCells%2 != 0 {
			t.Fatalf("plan %+v: want an even, nonzero filter size", plan)
		}
		// Enough pass capacity for the worst case at load factor ≤ 1.
		if int64(plan.Passes)*int64(plan.TableSlots) < int64(tc.occ) {
			t.Fatalf("plan %+v cannot hold %d occurrences", plan, tc.occ)
		}
	}
	// MinCount < 2 disables the filter.
	plan, err := PlanFor(1000, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.BloomCells != 0 {
		t.Fatalf("MinCount=1 still allocated %d filter cells", plan.BloomCells)
	}
	if _, err := PlanFor(100, 21, BudgetConfig{MemBudget: MinMemBudget - 1, MinCount: 2}); err == nil {
		t.Error("sub-minimum budget accepted")
	}
	if _, err := PlanFor(100, 2, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2}); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := PlanFor(100, kmer.MaxK+1, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2}); err == nil {
		t.Error("k>MaxK accepted")
	}

	// A plan of more than maxPasses passes is refused with the numbers that
	// ask for it: 10⁸ windows at the minimum budget would be ≈ 200k
	// launches over every read.
	var bound *PassBoundError
	_, err = PlanFor(100_000_000, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2})
	if !errors.As(err, &bound) || bound.Occ != 100_000_000 || bound.K != 21 || bound.Budget != MinMemBudget || bound.Passes <= maxPasses {
		t.Errorf("10⁸ windows at the minimum budget: %v, want a PassBoundError naming them", err)
	}
	if _, err := PlanFor(1000, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: maxPasses + 1}); !errors.As(err, &bound) {
		t.Errorf("a %d-pass override: %v, want a PassBoundError", maxPasses+1, err)
	}
	if _, err := PlanFor(1000, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: maxPasses}); err != nil {
		t.Errorf("a %d-pass override: %v", maxPasses, err)
	}
}

// TestCountBudgetMatchesCPU is the central equivalence property: for any
// k (including multi-word k > 32, which Count cannot handle), the merged
// multi-pass table equals the host table after the error filter — the
// Bloom prefilter has no false negatives and partition counts are exact.
func TestCountBudgetMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{21, 32, 33, 55} {
		seqs := coveredReads(rng, 25, 2, 10, 90)
		tab, st, err := CountBudget(testDev(), seqs, k, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		tab.Filter(2)
		tablesEqual(t, tab, hostFiltered(t, seqs, k, 2), seqs, k)
		if st.Passes < 2 {
			t.Errorf("k=%d: %d passes at the minimum budget; want a genuine multi-pass plan", k, st.Passes)
		}
		if st.FilteredSingletons == 0 {
			t.Errorf("k=%d: singleton reads present but the filter rejected nothing", k)
		}
		if st.Kernels == 0 || st.KernelTime <= 0 {
			t.Errorf("k=%d: kernel accounting missing: %+v", k, st)
		}
		if r := st.FPRate(); r < 0 || r > 1 {
			t.Errorf("k=%d: fp rate %v outside [0,1]", k, r)
		}
	}
}

// TestCountBudgetMinCount1 disables the filter: the table must match the
// unfiltered host count exactly, singletons included.
func TestCountBudgetMinCount1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := randReads(rng, 40, 80)
	tab, st, err := CountBudget(testDev(), seqs, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, tab, hostFiltered(t, seqs, 21, 1), seqs, 21)
	if st.FilteredSingletons != 0 || st.BloomBytes != 0 {
		t.Fatalf("MinCount=1 run still filtered: %+v", st)
	}
}

// TestCountBudgetDeterministic: same input + budget → identical stats and
// tables across runs (fresh devices), the property the pipeline's
// bit-identical-contigs guarantee rests on.
func TestCountBudgetDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seqs := coveredReads(rng, 20, 2, 8, 100)
	cfg := BudgetConfig{MemBudget: MinMemBudget, MinCount: 2}
	tab1, st1, err := CountBudget(testDev(), seqs, 33, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab2, st2, err := CountBudget(testDev(), seqs, 33, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	if tab1.Len() != tab2.Len() {
		t.Fatalf("tables differ across identical runs: %d vs %d", tab1.Len(), tab2.Len())
	}
	tablesEqual(t, tab1, tab2, seqs, 33)
}

// TestBudgetCompletesWhereUnboundedFails is the acceptance scenario: on a
// device whose memory holds under a quarter of the input's distinct
// k-mers, unbounded counting fails with ErrTableFull while the budget
// path assembles the same table to completion.
func TestBudgetCompletesWhereUnboundedFails(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seqs := coveredReads(rng, 100, 2, 0, 150)
	k := 21

	small := simt.V100()
	small.GlobalMemBytes = 1 << 17
	if _, _, err := Count(simt.NewDevice(small), seqs, k); !errors.Is(err, gpuht.ErrTableFull) {
		t.Fatalf("unbounded count on the small device returned %v, want ErrTableFull", err)
	}

	tab, st, err := CountBudget(simt.NewDevice(small), seqs, k, BudgetConfig{MemBudget: MinMemBudget, MinCount: 2})
	if err != nil {
		t.Fatalf("budget count failed on the same device: %v", err)
	}
	tab.Filter(2)
	tablesEqual(t, tab, hostFiltered(t, seqs, k, 2), seqs, k)
	if st.Passes < 4 {
		t.Errorf("only %d passes for a ≥4x-oversized input", st.Passes)
	}
}

// TestCountBudgetSpillReplan forces a 1-pass plan onto an input that
// needs several: the overflowing pass must trigger doubling re-plans (not
// a hard ErrTableFull) until the partitions fit, and the result must
// still be exact.
func TestCountBudgetSpillReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := coveredReads(rng, 40, 2, 0, 120)
	cfg := BudgetConfig{MemBudget: MinMemBudget, MinCount: 2, Passes: 1}
	tab, st, err := CountBudget(testDev(), seqs, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillReplans < 2 {
		t.Fatalf("forced 1-pass plan re-planned %d times; want ≥ 2 doublings", st.SpillReplans)
	}
	if st.Passes != 1<<st.SpillReplans {
		t.Fatalf("passes %d after %d doublings of 1", st.Passes, st.SpillReplans)
	}
	tab.Filter(2)
	tablesEqual(t, tab, hostFiltered(t, seqs, 21, 2), seqs, 21)
}

// TestCountBudgetReplanStopsAtBound forces a plan just over half the pass
// bound onto as many windows, so each pass's table has three slots for about
// one distinct k-mer: the first pass that overflows would double the plan
// past maxPasses, so the count stops there with a PassBoundError instead of
// doubling on.
func TestCountBudgetReplanStopsAtBound(t *testing.T) {
	seqs := randReads(rand.New(rand.NewSource(11)), 3, 21+maxPasses/6) // 3·(maxPasses/6+1) = maxPasses/2+1 windows
	_, _, err := CountBudget(testDev(), seqs, 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: 1, Passes: maxPasses/2 + 1})
	var bound *PassBoundError
	if !errors.As(err, &bound) || bound.Passes != 2*(maxPasses/2+1) || bound.Occ != kmer.Windows(seqs, 21) {
		t.Fatalf("overflowing a %d-pass plan returned %v, want a PassBoundError for %d passes", maxPasses/2+1, err, 2*(maxPasses/2+1))
	}
}

// TestCountBudgetOneHash checks the one-hash derivation. On the record a
// device walk of the reads fills, every occurrence of a canonical k-mer
// carries the same high word, so for passes ∈ {1, 2, 3, 7} each distinct
// k-mer lands in exactly one pass; a spill doubling to 14 splits pass p into
// 2p and 2p+1; and no pass holds more than 1.2× the mean of distinct k-mers.
// Counts under those plans, with every repeated k-mer exactly at MinCount,
// equal the host's after Filter: the Bloom filter has no false negatives at
// k ∈ {21, 33, 55}.
func TestCountBudgetOneHash(t *testing.T) {
	const minCount = 3
	seqs := coveredReads(rand.New(rand.NewSource(29)), 60, minCount, 40, 150)
	for _, k := range []int{21, 33, 55} {
		dev := testDev()
		reads, err := stageReads(dev, seqs, k)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecord(seqs, k)
		if _, err := dev.Launch(simt.KernelConfig{Name: "walk", Warps: reads.warps}, func(w *simt.Warp) {
			var b warpBatch
			forEachBatch(w, &reads, &b, rec, func(*handoff) {})
		}); err != nil {
			t.Fatal(err)
		}
		high := map[kmer.Kmer]uint32{} // distinct canonical k-mer → its hash's high word
		for si, seq := range seqs {
			for start := 0; start+k <= len(seq); start += simt.WarpSize {
				c := rec.batches[rec.batchOff[si]+start/simt.WarpSize]
				for lane := 0; lane < simt.WarpSize; lane++ {
					if !c.valid.Has(lane) {
						continue
					}
					win := rec.winOff[si] + start + lane
					var km kmer.Kmer
					copy(km.W[:], rec.keys[win*rec.words:][:rec.words])
					if hi, seen := high[km]; seen && hi != rec.part[win] {
						t.Fatalf("k=%d: two occurrences of one k-mer carry high words %#x and %#x", k, hi, rec.part[win])
					}
					high[km] = rec.part[win]
				}
			}
		}
		if host := hostFiltered(t, seqs, k, 1); len(high) != host.Len() {
			t.Fatalf("k=%d: the record holds %d distinct keys, the host table %d", k, len(high), host.Len())
		}
		passOf := func(hi uint32, passes int) int { return int(reduce(uint64(hi)<<32, uint64(passes))) }
		for _, passes := range []int{1, 2, 3, 7, 14} {
			per := make([]int, passes)
			for _, hi := range high {
				p := passOf(hi, passes)
				if passes == 14 && p/2 != passOf(hi, 7) {
					t.Fatalf("k=%d: doubling 7 passes moved a k-mer from pass %d to %d", k, passOf(hi, 7), p)
				}
				per[p]++
			}
			if mean := float64(len(high)) / float64(passes); float64(slices.Max(per)) > 1.2*mean {
				t.Errorf("k=%d, %d passes: %v distinct k-mers per pass, over 1.2× the mean %.0f", k, passes, per, mean)
			}
		}

		want := hostFiltered(t, seqs, k, minCount)
		for _, passes := range []int{1, 2, 3, 7} {
			tab, st, err := CountBudget(testDev(), seqs, k, BudgetConfig{MemBudget: 1 << 20, MinCount: minCount, Passes: passes})
			if err != nil {
				t.Fatalf("k=%d, %d passes: %v", k, passes, err)
			}
			if st.Passes != passes || st.FilteredSingletons == 0 {
				t.Errorf("k=%d: a %d-pass plan ran %d passes and filtered %d occurrences", k, passes, st.Passes, st.FilteredSingletons)
			}
			tab.Filter(minCount)
			tablesEqual(t, tab, want, seqs, k)
		}
	}
}

func BenchmarkBloomPrefilter(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	seqs := coveredReads(rng, 50, 2, 20, 150)
	cfg := BudgetConfig{MemBudget: 1 << 20, MinCount: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CountBudget(testDev(), seqs, 21, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiPassCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	seqs := coveredReads(rng, 50, 2, 20, 150)
	cfg := BudgetConfig{MemBudget: MinMemBudget, MinCount: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CountBudget(testDev(), seqs, 21, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountBudgetCancel cancels a count from inside its first launch: the
// count returns an error wrapping context.Canceled after at most one more
// launch, with the filter on and off.
func TestCountBudgetCancel(t *testing.T) {
	defer func(tap func(simt.KernelResult)) { launchTap = tap }(launchTap)
	for _, minCount := range []uint32{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		launches := 0
		launchTap = func(simt.KernelResult) {
			if launches++; launches == 1 {
				cancel()
			}
		}
		_, _, err := CountBudgetContext(ctx, testDev(), goldenFixture(), 21, BudgetConfig{MemBudget: MinMemBudget, MinCount: minCount})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("MinCount %d: canceled count returned %v, want context.Canceled", minCount, err)
		}
		if launches > 2 {
			t.Errorf("MinCount %d: %d launches ran, want the canceling one and at most one more", minCount, launches)
		}
	}
}
