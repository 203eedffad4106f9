package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/par"
	"mhm2sim/internal/preprocess"
	"mhm2sim/internal/simt"
)

// Run executes the full pipeline over the paired reads as an explicit
// stage graph (Fig 1): merge reads, then per contigging round k-mer
// analysis → contig generation → alignment → local assembly (→ checkpoint
// I/O), then scaffolding and file I/O. The stage driver owns timing,
// checkpointing, and the Observer callbacks; local assembly runs on the
// one engine resolved from cfg (see locassm.Engine), so every execution
// substrate — host, GPU, multi-GPU node, distributed ranks — flows through
// the same loop.
func Run(pairs []dna.PairedRead, cfg Config) (*Result, error) {
	return RunContext(context.Background(), pairs, cfg)
}

// RunContext is Run with cancellation: the stage driver checks ctx at
// every stage boundary, so a canceled run stops after the stage in flight
// instead of running to completion. Combined with CheckpointDir this is
// the eviction contract of the service scheduler (internal/service): a
// canceled job has checkpoints for every completed round and a rerun
// resumes exactly where it stopped. The returned error wraps ctx.Err().
func RunContext(ctx context.Context, pairs []dna.PairedRead, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Engine = cfg.EngineSpec()
	// One device source for the run: the engine and budget counting draw
	// from cfg.Engine.Devices, and what the default source made is closed
	// here.
	defer cfg.Engine.ResolveDevices()()
	eng, err := locassm.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	if cfg.Engine.Instance == nil {
		defer eng.Close() // built here, not handed in
	}
	res := &Result{}
	st := &runState{
		ctx: ctx, cfg: &cfg, res: res, eng: eng,
		workers: par.Workers(cfg.Workers), pairs: pairs, counter: cmp.Or(cfg.Counter, new(dbg.Counter)),
	}
	if cfg.MemBudget > 0 { // one device for every round's budget counting
		if st.cdev, err = cfg.Engine.Devices(); err != nil {
			return nil, err
		}
	}
	d := &stageDriver{ctx: ctx, res: res, obs: cfg.Observer}
	d.exec(outerEvent(StageMergeReads), nil, st.mergeReads)

	// Iterative contigging rounds (Fig 1's "Iterate for k's"), resuming
	// past checkpointed rounds when a checkpoint directory is configured.
	skip := 0
	if cfg.CheckpointDir != "" && d.err == nil {
		var loaded []dbg.Contig
		if loaded, skip, err = resumePoint(cfg.CheckpointDir, cfg.Rounds); err != nil {
			return nil, err
		}
		st.ctgs = loaded
	}
	for ri := skip; ri < len(cfg.Rounds) && d.err == nil; ri++ {
		k := cfg.Rounds[ri]
		st.k, st.round = k, ri
		d.exec(roundEvent(StageKmerAnalysis, ri, k), nil, st.kmerAnalysis)
		d.exec(roundEvent(StageContigGen, ri, k), nil, st.contigGen)
		d.exec(roundEvent(StageAlignment, ri, k), &st.alnKernelShare, st.alignment)
		d.exec(roundEvent(StageLocalAssembly, ri, k), nil, st.localAssembly)
		if cfg.CheckpointDir != "" {
			d.exec(roundEvent(StageFileIO, ri, k), nil, st.saveCheckpoint)
		}
	}
	res.Contigs = st.ctgs

	d.exec(outerEvent(StageScaffolding), nil, st.scaffolding)
	d.exec(outerEvent(StageFileIO), nil, st.writeFinal)
	if d.err != nil {
		return nil, d.err
	}
	return res, nil
}

// runState is the dataflow between stages: each stage body consumes the
// fields earlier stages produced and fills its own. Splitting the old
// monolithic loop this way is what lets the driver treat every stage
// uniformly.
type runState struct {
	ctx     context.Context // the run's; budget counting checks it per launch
	cfg     *Config
	res     *Result
	eng     locassm.Engine
	workers int

	pairs []dna.PairedRead // input (post-preprocess)
	reads []dna.Read       // merged reads
	seqs  [][]byte         // merged read sequences

	k         int          // current round's k-mer size
	round     int          // current round index (MemPressure is per round)
	counter   *dbg.Counter // every round counts in it: cfg.Counter or the run's own
	table     *dbg.Table
	dcfg      dbg.Config
	ctgs      []dbg.Contig // traversed or checkpointed, then extended
	withReads []*locassm.CtgWithReads
	// alnKernelShare is the aln kernel's share of the last alignment
	// stage's wall, which the driver reads to split that stage.
	alnKernelShare float64

	// Budget-mode state: the counting device (drawn once, reused across
	// rounds) and the OOM-event count already absorbed into the budget.
	cdev    *simt.Device
	seenOOM int
}

// mergeReads is the merge-reads stage (with optional preprocessing).
func (st *runState) mergeReads() error {
	pairs := st.pairs
	if st.cfg.Preprocess != nil {
		// Copy the pair records: trimming rebinds slice headers and the
		// caller's slice must stay intact.
		cp := make([]dna.PairedRead, len(pairs))
		copy(cp, pairs)
		var ppStats preprocess.Stats
		var err error
		pairs, ppStats, err = preprocess.Run(cp, *st.cfg.Preprocess)
		if err != nil {
			return err
		}
		st.pairs = pairs
		st.res.Work.Preprocess = ppStats
	}
	minOverlap, maxMismatchFrac := st.cfg.mergeParams()
	st.reads = mergePairs(pairs, minOverlap, maxMismatchFrac)
	st.seqs = make([][]byte, len(st.reads))
	for i := range st.reads {
		st.seqs[i] = st.reads[i].Seq
	}
	return nil
}

// kmerAnalysis counts and error-filters the round's k-mers. Contigs from
// the previous round are injected (twice, so their k-mers survive the
// singleton filter) to carry progress forward.
func (st *runState) kmerAnalysis() error {
	roundSeqs := st.seqs
	for _, c := range st.ctgs {
		roundSeqs = append(roundSeqs, c.Seq, c.Seq)
	}
	st.dcfg = dbg.Config{
		K: st.k, MinCount: st.cfg.MinCount, Workers: st.workers, MinCtgLen: st.k + 10,
	}
	occ := kmer.Windows(roundSeqs, st.k)
	var err error
	if st.cfg.MemBudget > 0 {
		st.table, err = st.countBudget(roundSeqs, occ)
	} else {
		st.table, err = st.counter.Count(roundSeqs, st.dcfg)
	}
	if err != nil {
		return err
	}
	st.res.Work.KmerOccurrences += int64(occ)
	st.table.Filter(st.cfg.MinCount)
	return nil
}

// countBudget is kmerAnalysis's memory-bounded path: the round's k-mers
// are counted on the dedicated budget device under the effective budget —
// the configured budget halved once per chaos OOM event that has fired by
// this round (floored at the planner minimum). An OOM therefore degrades
// into a re-planned spill with more, smaller passes; the counts — and so
// the contigs — are unchanged, only the pass schedule grows.
func (st *runState) countBudget(roundSeqs [][]byte, occ int) (*dbg.Table, error) {
	pressure := 0
	if st.cfg.MemPressure != nil {
		pressure = st.cfg.MemPressure(st.round)
	}
	eff := max(st.cfg.MemBudget>>uint(pressure), gpucount.MinMemBudget)
	st.cdev.FreeAll()
	defer st.cdev.FreeAll() // the device may be its supplier's: leave nothing on it
	bcfg := gpucount.BudgetConfig{MemBudget: eff, MinCount: st.cfg.MinCount}
	table, stats, err := gpucount.CountBudgetContext(st.ctx, st.cdev, roundSeqs, st.k, bcfg)
	if err != nil {
		return nil, err
	}
	stats.Configured = st.cfg.MemBudget
	if newEvents := pressure - st.seenOOM; newEvents > 0 {
		stats.OOMReplans = newEvents
		st.seenOOM = pressure
	}
	// Spill passes: everything beyond the plan at the full configured
	// budget, i.e. the extra passes degradation cost this round.
	full := gpucount.BudgetConfig{MemBudget: st.cfg.MemBudget, MinCount: st.cfg.MinCount}
	if plan, perr := gpucount.PlanFor(occ, st.k, full); perr == nil && stats.Passes > plan.Passes {
		stats.SpillPasses = stats.Passes - plan.Passes
	}
	st.res.Work.KmerBudget.Add(stats)
	return table, nil
}

// contigGen traverses the filtered de Bruijn graph into contigs.
func (st *runState) contigGen() error {
	st.ctgs = st.table.Contigs(st.dcfg)
	if st.cfg.MemBudget == 0 { // budget rounds count on the device, never in the Counter
		st.counter.Release(st.table) // the next round counts in its memory
	}
	st.table = nil
	return nil
}

// alignment finds candidate reads per contig end (+ aln kernel) and
// snapshots the local-assembly workload before extension mutates it.
func (st *runState) alignment() error {
	withReads, kernelShare, err := alignCandidates(st.reads, st.ctgs, st.cfg, st.workers)
	st.alnKernelShare = kernelShare
	if err != nil {
		return err
	}
	st.withReads = withReads
	// Snapshot the workload (struct copies keep the pre-extension
	// sequences; read slices are shared and never mutated).
	snapshot := make([]*locassm.CtgWithReads, len(withReads))
	for i, c := range withReads {
		cc := *c
		snapshot[i] = &cc
	}
	st.res.LAWorkload = snapshot
	return nil
}

// localAssembly extends the round's contigs through the resolved engine —
// the one call every execution substrate is behind — then applies the
// extensions and merges the engine's accounting.
func (st *runState) localAssembly() error {
	results, stats, err := st.eng.Assemble(st.k, st.withReads)
	if err != nil {
		return err
	}
	if len(results) != len(st.withReads) {
		return fmt.Errorf("pipeline: engine %q returned %d results for %d contigs",
			st.cfg.Engine.Name, len(results), len(st.withReads))
	}
	st.res.Work.GPUKernels = append(st.res.Work.GPUKernels, stats.Kernels...)
	st.res.Work.GPUKernelTime += stats.KernelTime
	st.res.Work.GPUTransferTime += stats.TransferTime
	st.res.Work.Locassm.Add(stats.Counts)

	bins := locassm.MakeBins(st.withReads, locassm.DefaultSmallLimit)
	st.res.Bins = append(st.res.Bins, RoundBins{
		K: st.k, Zero: len(bins.Zero), Small: len(bins.Small), Large: len(bins.Large),
	})

	// The extended contigs feed the next round (and the final output).
	for i := range st.withReads {
		ext := results[i].ExtendedSeq(st.withReads[i].Seq)
		st.withReads[i].Seq = ext
		st.ctgs[i].Seq = ext
	}
	return nil
}

// saveCheckpoint persists the round's extended contigs (checkpoint I/O).
func (st *runState) saveCheckpoint() error {
	n, err := saveRound(st.cfg.CheckpointDir, st.k, st.ctgs)
	if err != nil {
		return err
	}
	st.res.Work.IOBytes += n
	return nil
}

// scaffolding joins the final contigs into scaffolds using the original
// pairs.
func (st *runState) scaffolding() error {
	scaffolds, estInsert, err := runScaffolding(st.pairs, st.ctgs, st.cfg, st.workers)
	if err != nil {
		return err
	}
	st.res.Scaffolds = scaffolds
	st.res.Work.EstimatedInsert = estInsert
	return nil
}

// writeFinal serializes the outputs as the real pipeline would (file I/O),
// accumulating onto the bytes checkpointing already wrote.
func (st *runState) writeFinal() error {
	n, err := writeOutputs(io.Discard, st.res)
	if err != nil {
		return err
	}
	st.res.Work.IOBytes += n
	return nil
}
