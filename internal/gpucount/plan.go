package gpucount

import (
	"fmt"

	"mhm2sim/internal/kmer"
)

// Memory-bounded counting (the ROADMAP "Bloom prefilter + multi-pass"
// item): instead of sizing the device hash table to the worst-case k-mer
// count, CountBudget fits its counting structures — a counting-Bloom
// prefilter plus one hash table reused across passes — inside a caller
// byte budget, and partitions canonical-k-mer space by hash range into as
// many passes as the budget requires. The plan is chosen up front from
// nothing but the budget, k, and the worst-case occurrence count, so the
// same input and budget always produce the same pass schedule (and, since
// per-k-mer counts are exact, the same merged table).

// MinMemBudget is the smallest accepted memory budget (64 KiB): enough
// for a minimal filter plus a few hundred table slots. Below this the
// plan degenerates to one pass per handful of k-mers and flag validation
// rejects the budget outright.
const MinMemBudget = 1 << 16

const (
	// minBloomCells floors the filter size so tiny inputs still get a
	// filter with a measurable (not catastrophic) false-positive rate.
	minBloomCells = 1024
	// maxPasses bounds the passes of a plan or a spill re-plan: each pass
	// is a launch over every read.
	maxPasses = 1024
)

// PassBoundError is the refusal of a plan, or a spill re-plan, of more than
// maxPasses passes.
type PassBoundError struct {
	Occ, K, Passes int
	Budget         int64
}

func (e *PassBoundError) Error() string {
	return fmt.Sprintf("gpucount: %d k-mer windows at k=%d need %d passes under a %d-byte budget, more than %d", e.Occ, e.K, e.Passes, e.Budget, maxPasses)
}

// kmerWords returns the packed 64-bit words covering k bases.
func kmerWords(k int) int { return (k + 31) / 32 }

// entrySize returns the table entry footprint for a key of the given
// word width: u32 state + u32 count + words×u64 key + 4×u32 left +
// 4×u32 right. For one-word keys this is the 48-byte layout Count uses.
func entrySize(words int) int { return 40 + 8*words }

// BudgetConfig parameterizes memory-bounded counting.
type BudgetConfig struct {
	// MemBudget bounds the bytes CountBudget holds on the device for its
	// counting structures (Bloom filter + hash table), ≥ MinMemBudget.
	MemBudget int64
	// MinCount is the admission threshold of the counting-Bloom
	// prefilter: k-mers whose filter estimate is below it never enter the
	// table. Values < 2 disable the filter (a threshold of 1 can drop
	// nothing, so the pre-pass would be pure overhead).
	MinCount uint32
	// Passes overrides the planned pass count when > 0 (tests use it to
	// exercise the spill re-plan path deterministically).
	Passes int
}

// Plan is the up-front execution plan for one CountBudget call.
type Plan struct {
	// Passes is the number of hash-range partitions of canonical-k-mer
	// space; each pass counts exactly one partition into the table.
	Passes int
	// TableSlots is the hash-table capacity, reused (cleared) per pass.
	TableSlots int
	// BloomCells is the u32 cell count of the counting-Bloom filter
	// (0 = filter disabled because MinCount < 2).
	BloomCells int
}

// PlanFor computes the pass plan for a worst-case occurrence count occ at
// k-mer length k. The plan depends only on its arguments — never on the
// sequence content — which is what makes budget runs deterministic.
func PlanFor(occ, k int, cfg BudgetConfig) (Plan, error) {
	if k < 4 || k > kmer.MaxK {
		return Plan{}, fmt.Errorf("gpucount: k %d outside [4,%d]", k, kmer.MaxK)
	}
	if cfg.MemBudget < MinMemBudget {
		return Plan{}, fmt.Errorf("gpucount: memory budget %d below minimum %d", cfg.MemBudget, MinMemBudget)
	}
	occ = max(occ, 1)
	budget := cfg.MemBudget
	var cells int
	if cfg.MinCount >= 2 {
		// Filter sizing: two cells per worst-case occurrence keeps the
		// per-hash load ≤ 0.5, capped at a quarter of the budget so the
		// table always keeps the lion's share.
		cells = max(int(min(budget/4, int64(occ)*8)/4), minBloomCells)
		cells += cells & 1 // even cell count keeps the region 8-byte aligned
		budget -= int64(cells) * 4
	}
	eb := int64(entrySize(kmerWords(k)))
	maxSlots := budget / eb
	perPass := (maxSlots - 1) / 2 // load factor ≤ 0.5, as in Count
	if perPass < 1 {
		return Plan{}, fmt.Errorf("gpucount: memory budget %d leaves no room for a %d-byte table slot beside the filter", cfg.MemBudget, eb)
	}
	passes := cfg.Passes
	if passes <= 0 {
		passes = int((int64(occ) + perPass - 1) / perPass)
	}
	if passes > maxPasses {
		return Plan{}, &PassBoundError{occ, k, passes, cfg.MemBudget}
	}
	per := (occ + passes - 1) / passes
	return Plan{Passes: passes, TableSlots: int(min(int64(2*per+1), maxSlots)), BloomCells: cells}, nil
}
