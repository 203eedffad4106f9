package gpucount

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/simt"
)

// BudgetStats is the accounting of one memory-bounded counting run (or,
// via Add, of every budget round of a pipeline run). Its JSON names, and
// Counters', are the report's kmer section (report.SchemaVersion): renaming
// one is a schema change.
type BudgetStats struct {
	// Configured is the caller-requested budget in bytes; Effective is
	// the budget actually applied after OOM degradation shrank it.
	// CountBudget itself only knows Effective (it is handed the shrunk
	// value); the pipeline fills Configured and the OOM fields.
	Configured int64 `json:"mem_budget_bytes"`
	Effective  int64 `json:"effective_budget_bytes"`
	// Passes is the executed partitioned-pass count; PlannedPasses is
	// the up-front plan at the effective budget. SpillPasses counts the
	// passes beyond the plan at the *configured* budget — the extra work
	// graceful degradation (OOM shrink or spill re-plans) cost.
	Passes        int `json:"passes"`
	PlannedPasses int `json:"planned_passes"`
	SpillPasses   int `json:"spill_passes,omitempty"`
	// SpillReplans counts in-run re-plans: a pass overflowed its table
	// (hash-range imbalance beyond the 2x headroom) and the whole count
	// restarted with doubled passes.
	SpillReplans int `json:"spill_replans,omitempty"`
	// OOMReplans counts chaos DeviceOOM events absorbed by shrinking the
	// effective budget instead of falling back to the host path.
	OOMReplans int `json:"oom_replans,omitempty"`
	// FilteredSingletons counts k-mer occurrences the Bloom prefilter
	// rejected (their k-mer provably cannot reach MinCount). Inserted
	// counts distinct k-mers that entered the table; FPInserted is the
	// subset that were filter false positives (exact count < MinCount),
	// i.e. wasted slots — the filter's only failure mode.
	FilteredSingletons int64 `json:"filtered_singletons"`
	Inserted           int64 `json:"inserted_kmers"`
	FPInserted         int64 `json:"-"`
	// TableBytes/BloomBytes are the device footprints of the two
	// counting structures; their sum is ≤ the effective budget.
	TableBytes int64 `json:"table_bytes"`
	BloomBytes int64 `json:"bloom_bytes"`
	// Kernels, KernelTime and Stats account every counting launch (clear,
	// filter, passes), kept separate from the local-assembly kernel list
	// so engine-level reporting is unchanged by budget mode.
	Kernels    int          `json:"kernels"`
	KernelTime clock.Device `json:"kernel_time_ns"`
	Stats      Counters     `json:"stats"`
}

// Counters are simt.Stats summed over launches, under the report's names.
// A sum has no kernel name, so Kernel is not encoded. The two types convert
// into each other, so a counter added to simt.Stats fails to compile here.
type Counters struct {
	Kernel            string                       `json:"-"`
	WarpInstrs        [simt.NumInstrClasses]uint64 `json:"warp_instrs"`
	ThreadInstrs      [simt.NumInstrClasses]uint64 `json:"thread_instrs"`
	PredicatedOff     uint64                       `json:"predicated_off"`
	GlobalSectors     uint64                       `json:"global_sectors"`
	LocalSectors      uint64                       `json:"local_sectors"`
	AtomicSectors     uint64                       `json:"atomic_sectors"`
	Warps             uint64                       `json:"warps"`
	MaxSerialMemChain uint64                       `json:"max_serial_mem_chain"`
}

// FPRate returns the filter false-positive rate among inserted k-mers.
func (s BudgetStats) FPRate() float64 {
	if s.Inserted == 0 {
		return 0
	}
	return float64(s.FPInserted) / float64(s.Inserted)
}

// Add accumulates o into s (Configured/Effective keep the most
// constrained round; footprints keep the peak).
func (s *BudgetStats) Add(o BudgetStats) {
	s.Configured = max(s.Configured, o.Configured)
	if s.Effective == 0 || (o.Effective > 0 && o.Effective < s.Effective) {
		s.Effective = o.Effective
	}
	s.Passes += o.Passes
	s.PlannedPasses += o.PlannedPasses
	s.SpillPasses += o.SpillPasses
	s.SpillReplans += o.SpillReplans
	s.OOMReplans += o.OOMReplans
	s.FilteredSingletons += o.FilteredSingletons
	s.Inserted += o.Inserted
	s.FPInserted += o.FPInserted
	s.TableBytes, s.BloomBytes = max(s.TableBytes, o.TableBytes), max(s.BloomBytes, o.BloomBytes)
	s.Kernels += o.Kernels
	s.KernelTime += o.KernelTime
	(*simt.Stats)(&s.Stats).Add((*simt.Stats)(&o.Stats))
}

// Sub returns what s, a later reading of one accumulation, added since prev:
// the fields Add sums, subtracted (budgets, footprints and the longest
// memory chain stay s's).
func (s BudgetStats) Sub(prev BudgetStats) BudgetStats {
	s.Passes -= prev.Passes
	s.PlannedPasses -= prev.PlannedPasses
	s.SpillPasses -= prev.SpillPasses
	s.SpillReplans -= prev.SpillReplans
	s.OOMReplans -= prev.OOMReplans
	s.FilteredSingletons -= prev.FilteredSingletons
	s.Inserted -= prev.Inserted
	s.FPInserted -= prev.FPInserted
	s.Kernels -= prev.Kernels
	s.KernelTime -= prev.KernelTime
	(*simt.Stats)(&s.Stats).Sub((*simt.Stats)(&prev.Stats))
	return s
}

// CountBudget runs memory-bounded k-mer counting on the device: a
// counting-Bloom prefilter pass bounds every k-mer's total count from
// above so occurrences that provably cannot reach MinCount never touch
// the table, then one counting pass per hash-range partition of
// canonical-k-mer space counts its partition into a table sized to the
// budget, and the per-pass tables merge into one exact result. Because
// partitions are disjoint and per-k-mer counts are exact, the merged
// table equals the host dbg.Count table up to the k-mers the filter
// dropped — all of them below MinCount, so after Table.Filter(MinCount)
// the two are identical. Unlike Count, any k ≤ kmer.MaxK is supported
// (multi-word keys).
//
// If a pass overflows its table despite the 2x headroom (extreme
// hash-range imbalance), the run restarts with doubled passes — a spill
// re-plan — rather than failing with ErrTableFull, up to maxPasses.
//
// Only the first launch that walks the reads records their prologue and
// hashes each window; the later launches replay it.
func CountBudget(dev *simt.Device, seqs [][]byte, k int, cfg BudgetConfig) (*dbg.Table, BudgetStats, error) {
	return CountBudgetContext(context.Background(), dev, seqs, k, cfg)
}

// CountBudgetContext is CountBudget with cancellation: ctx is checked before
// every launch, and the returned error wraps ctx.Err().
func CountBudgetContext(ctx context.Context, dev *simt.Device, seqs [][]byte, k int, cfg BudgetConfig) (*dbg.Table, BudgetStats, error) {
	var st BudgetStats
	occ := kmer.Windows(seqs, k)
	plan, err := PlanFor(occ, k, cfg) // validates k and the budget
	if err != nil {
		return nil, st, err
	}
	st.Effective = cfg.MemBudget
	st.PlannedPasses = plan.Passes

	// One arena growth for the reads (a read of n windows has n+k−1 bytes),
	// the filter and the table, instead of one per allocation. A footprint
	// beyond the device is left to the Mallocs below to report.
	st.BloomBytes = int64(plan.BloomCells) * 4
	st.TableBytes = int64(plan.TableSlots) * int64(entrySize(kmerWords(k)))
	_ = dev.Prealloc(dev.InUse() + int64(occ+len(seqs)*k) + st.BloomBytes + st.TableBytes + 256)

	reads, err := stageReads(dev, seqs, k)
	if err != nil {
		return nil, st, err
	}

	var bloomBase simt.Ptr
	if plan.BloomCells > 0 {
		if bloomBase, err = dev.Malloc(st.BloomBytes); err != nil {
			return nil, st, err
		}
	}
	tabBase, err := dev.Malloc(st.TableBytes)
	if err != nil {
		return nil, st, err
	}

	launch := func(name string, kern, commit func(w *simt.Warp)) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gpucount: canceled before %s: %w", name, err)
		}
		res, lerr := dev.Launch(simt.KernelConfig{Name: name, Warps: reads.warps, Commit: commit}, kern)
		if lerr != nil {
			return lerr
		}
		st.Kernels++
		st.KernelTime += res.Time
		(*simt.Stats)(&st.Stats).Add(&res.Stats)
		launchTap(res)
		return nil
	}

	bc := &budgetCounter{
		staged: reads, dev: dev, tab: newTable(tabBase, plan.TableSlots, kmerWords(k)),
		rec:       newRecord(seqs, k),
		bloomBase: bloomBase, cells: uint64(plan.BloomCells),
		minCount: cfg.MinCount,
	}

	// Filter phase: one pass over every occurrence populates the
	// counting-Bloom (shared cells ⇒ ordered commit, as for the table).
	if plan.BloomCells > 0 {
		if err := launch("kmer_bloom_clear", func(w *simt.Warp) {
			clearWords(w, bloomBase, plan.BloomCells/2, reads.warps)
		}, nil); err != nil {
			return nil, st, err
		}
		if err := launch(fmt.Sprintf("kmer_bloom_k%d", k), bc.bloomKernel, bc.bloomCommit); err != nil {
			return nil, st, err
		}
		bc.rec.full = true
	}

	passes := plan.Passes
	out, rejected, fp, err := bc.runPasses(passes, launch)
	for errors.Is(err, gpuht.ErrTableFull) {
		if passes *= 2; passes > maxPasses {
			return nil, st, &PassBoundError{occ, k, passes, cfg.MemBudget}
		}
		st.SpillReplans++
		out, rejected, fp, err = bc.runPasses(passes, launch)
	}
	if err != nil {
		return nil, st, err
	}
	st.Passes, st.FilteredSingletons, st.FPInserted, st.Inserted = passes, rejected, fp, int64(out.Len())
	return out, st, nil
}

// launchTap sees every counting launch's result (tests pin them).
var launchTap = func(simt.KernelResult) {}

// budgetCounter carries the device layout shared by the budget kernels.
type budgetCounter struct {
	staged
	dev       *simt.Device
	tab       table
	rec       *record
	bloomBase simt.Ptr
	cells     uint64
	minCount  uint32
}

// runPasses executes one counting pass per partition against the shared
// device table (cleared between passes) and reads every pass's claimed
// entries back into one host table, sized at the first read-back for that
// pass's share times the passes. Partitions are disjoint, so each k-mer is
// read back once; fp counts the ones below MinCount (filter false
// positives).
func (c *budgetCounter) runPasses(passes int, launch func(name string, kern, commit func(*simt.Warp)) error) (out *dbg.Table, rejected, fp int64, err error) {
	rejects := make([]uint64, c.warps)
	for pass := 0; pass < passes; pass++ {
		if err := launch("kmer_budget_clear", func(w *simt.Warp) {
			clearWords(w, c.tab.base, c.tab.slots*entrySize(c.tab.words)/8, c.warps)
		}, nil); err != nil {
			return nil, 0, 0, err
		}
		clear(c.tab.claimed)
		var kernErr error
		name := fmt.Sprintf("kmer_budget_k%d_p%d.%d", c.k, pass, passes)
		if err := launch(name, func(w *simt.Warp) {
			var b warpBatch
			forEachBatch(w, &c.staged, &b, c.rec, func(h *handoff) {
				c.passBatch(w, &b, h, pass, passes, &rejects[w.ID])
			})
		}, c.tab.committer(&kernErr)); err != nil {
			return nil, 0, 0, err
		}
		c.rec.full = true
		if kernErr != nil {
			return nil, 0, 0, fmt.Errorf("gpucount: pass %d/%d: %w", pass, passes, kernErr)
		}
		if out == nil {
			claims := 0
			for _, word := range c.tab.claimed {
				claims += bits.OnesCount64(word)
			}
			out = dbg.NewTable(c.k, claims*passes*9/8) // an eighth over, so it seldom grows
		}
		c.tab.forEachClaimed(c.dev, func(km kmer.Kmer, info dbg.Info) {
			out.Add(km, info)
			if info.Count < c.minCount {
				fp++
			}
		})
	}
	for _, r := range rejects {
		rejected += int64(r)
	}
	return out, rejected, fp, nil
}

// Every placement of a window's k-mer is a multiply-shift reduction of its
// one hash (record.save): its pass of the high word, its first Bloom cell of
// the low word, its second cell and its table slot of two odd-multiplier
// remixes, which spread a pass's keys (their high words are close) over the
// whole filter and table.
const remixCell, remixSlot = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93

// reduce maps x, uniform over 64 bits, onto [0, n).
func reduce(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// cellAddrs returns the addresses of the two counting-Bloom cells of the key
// hashed to h.
func (c *budgetCounter) cellAddrs(h uint64) (uint64, uint64) {
	base := uint64(c.bloomBase)
	return base + reduce(h<<32, c.cells)*4, base + reduce(h*remixCell, c.cells)*4
}

// bloomKernel and bloomCommit add every valid canonical k-mer occurrence to
// both counting-Bloom cells; the hand-off is a word per lane, both cells'
// offsets in the filter (it is under 4 GiB). Cell counts bound the true count
// from above, so the insert passes reject no k-mer that reaches MinCount.
func (c *budgetCounter) bloomKernel(w *simt.Warp) {
	var b warpBatch
	forEachBatch(w, &c.staged, &b, c.rec, func(h *handoff) {
		w.ExecN(simt.IInt, b.valid, 4) // one hash, a remix, two multiply-shifts
		for _, x := range b.hash {
			a0, a1 := c.cellAddrs(x)
			h.words = append(h.words, a0-uint64(c.bloomBase)|(a1-uint64(c.bloomBase))<<32)
		}
		h.batches = append(h.batches, batchRec{b.mask, b.valid})
	})
}

func (c *budgetCounter) bloomCommit(w *simt.Warp) {
	h := w.Scratch.(*handoff)
	var a0, a1 simt.Vec
	for i, r := range h.batches {
		for lane, v := range h.words[simt.WarpSize*i:][:simt.WarpSize] {
			a0[lane], a1[lane] = uint64(c.bloomBase)+v&0xffffffff, uint64(c.bloomBase)+v>>32
		}
		w.AtomicAdd(r.lanes, &a0, &oneVec, 4)
		w.AtomicAdd(r.lanes, &a1, &oneVec, 4)
	}
}

// passBatch is the read-only half of one partitioned pass over one
// warp-width of k-mers: partition filter, Bloom admission, then the first
// slot of the lanes the table's committer will insert.
func (c *budgetCounter) passBatch(w *simt.Warp, b *warpBatch, h *handoff, pass, passes int, reject *uint64) {
	valid := b.valid

	// Partition filter: each distinct k-mer belongs to exactly one pass, the
	// recorded high word of its hash reduced onto the passes. Doubling the
	// passes splits each pass in two.
	if passes > 1 {
		w.Exec(simt.IInt, valid) // multiply-shift + compare
		part := c.rec.part[b.win:]
		for m := uint32(valid); m != 0; m &= m - 1 {
			if lane := bits.TrailingZeros32(m); reduce(uint64(part[lane])<<32, uint64(passes)) != uint64(pass) {
				valid &^= simt.LaneMask(lane)
			}
		}
		if valid == 0 {
			return
		}
	}
	if c.rec.full {
		c.rec.load(b, valid) // only this pass's lanes of a replayed batch
	}

	// Bloom admission: estimate = min of the two cells; below MinCount
	// the k-mer provably cannot survive the error filter.
	if c.cells > 0 {
		var a0, a1, c0, c1 simt.Vec
		for m := uint32(valid); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a0[lane], a1[lane] = c.cellAddrs(b.hash[lane])
		}
		w.LoadGlobal(valid, &a0, 4, &c0)
		w.LoadGlobal(valid, &a1, 4, &c1)
		w.Exec(simt.IInt, valid) // min + compare
		for m := uint32(valid); m != 0; m &= m - 1 {
			if lane := bits.TrailingZeros32(m); uint32(min(c0[lane], c1[lane])) < c.minCount {
				valid &^= simt.LaneMask(lane)
				*reject++
			}
		}
		if valid == 0 {
			return
		}
	}

	// First slot of the insert into the shared per-pass table.
	h.pushKeys(w, b, valid, c.tab.words, func(lane int) uint64 { return reduce(b.hash[lane]*remixSlot, uint64(c.tab.slots)) })
}
