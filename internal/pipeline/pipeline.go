// Package pipeline wires the substrates into a MetaHipMer2-like assembler
// (Fig 1): merge reads → iterate over k {k-mer analysis → contig generation
// → alignment → local assembly} → scaffolding → file I/O, with per-stage
// timing in exactly the categories of the paper's Fig 2 breakdowns and a
// record of the work each stage did.
package pipeline

import (
	"cmp"
	"fmt"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/scaffold"
	"mhm2sim/internal/simt"

	"mhm2sim/internal/align"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/preprocess"
)

// Stage indexes the Fig 2 breakdown categories.
type Stage int

const (
	StageMergeReads Stage = iota
	StageKmerAnalysis
	StageContigGen
	StageAlignment // alignment stage minus the SW kernel
	StageAlnKernel // time inside banded Smith-Waterman
	StageLocalAssembly
	StageScaffolding
	StageFileIO
	NumStages
)

var stageNames = [NumStages]string{
	"merge reads", "k-mer analysis", "contig generation", "alignment",
	"aln kernel", "local assembly", "scaffolding", "file I/O",
}

// String names the stage as in Fig 2's legend.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Timings records measured wall time per stage.
type Timings struct {
	Wall [NumStages]time.Duration
}

// Add accumulates d into the stage.
func (t *Timings) Add(s Stage, d time.Duration) { t.Wall[s] += d }

// Total sums all stages.
func (t *Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.Wall {
		sum += d
	}
	return sum
}

// WorkRecord counts the work of one pipeline run. Each field has a reader
// outside the tests, or is the reference a named test checks a live path
// against (DESIGN.md §11):
//   - KmerOccurrences: the benchmark's pipeline.kmer_occurrences;
//   - Locassm: the dist parity rows' host-work check against one host rank;
//   - GPUKernels, GPUKernelTime, GPUTransferTime: the report's gpu section
//     and mhm2sim's kernel table;
//   - IOBytes: TestCancelResumeEveryStageBoundary's resume accounting;
//   - Preprocess, EstimatedInsert: mhm2sim's summary lines;
//   - KmerBudget: the report's kmer section, the daemon's metrics, the dist
//     runtime's recovery stats and the benchmark.
//
// The cluster model reads none of it: it scales Result.LAWorkload re-run
// through locassm (internal/cluster). A distributed run's fabric traffic is
// in its dist.Report, not here.
type WorkRecord struct {
	KmerOccurrences int64 // k-mer insertions across all rounds
	Locassm         locassm.WorkCounts
	GPUKernels      []simt.KernelResult
	GPUKernelTime   clock.Device
	GPUTransferTime clock.Device
	IOBytes         int64
	Preprocess      preprocess.Stats
	// KmerBudget accumulates the memory-bounded counting accounting over
	// all rounds (zero value when MemBudget is unset). It is deliberately
	// separate from GPUKernels: budget counting runs on its own device
	// and must not flip engine-level GPU reporting on or off.
	KmerBudget gpucount.BudgetStats
	// EstimatedInsert is the inferred library insert size (0 when
	// estimation was off or had too few observations).
	EstimatedInsert int
}

// RoundBins records the §3.1 bin distribution for one k round (Fig 3).
// The JSON names are the v1 report's bins section (internal/report).
type RoundBins struct {
	K     int `json:"k"`
	Zero  int `json:"bin1_zero"`
	Small int `json:"bin2_small"`
	Large int `json:"bin3_large"`
}

// Default read-merging parameters (the merge-reads stage of Fig 1).
const (
	// DefaultMergeMinOverlap is the minimum mate overlap to merge a pair.
	DefaultMergeMinOverlap = 20
	// DefaultMergeMaxMismatchFrac is the mismatch fraction tolerated
	// inside the overlap.
	DefaultMergeMaxMismatchFrac = 0.1
)

// Config assembles the sub-configurations.
type Config struct {
	// Rounds lists the contigging k values, smallest first (MetaHipMer
	// iterates k = 21, 33, 55, 77, 99 on 150 bp data).
	Rounds []int
	// MinCount is the k-mer error-filter threshold, at most
	// dbg.MaxExtCount.
	MinCount uint32
	Align    align.Config
	Scaffold scaffold.Config
	// MergeMinOverlap is the minimum overlap (bases) between the forward
	// mate and the reverse-complemented reverse mate for a pair to merge
	// (0 = DefaultMergeMinOverlap).
	MergeMinOverlap int
	// MergeMaxMismatchFrac is the fraction of mismatching bases tolerated
	// inside the overlap. 0 means DefaultMergeMaxMismatchFrac; for exact
	// overlaps use a fraction smaller than 1/MaxReadLen.
	MergeMaxMismatchFrac float64
	// Workers bounds the run's worker goroutines (0 = GOMAXPROCS): every
	// stage's and the host engine's, which a dist run spreads over its ranks.
	// It changes host wall only, never a modeled number or an output byte.
	Workers int

	// Preprocess enables read preparation (adapter/quality trimming and
	// filtering) before merging; nil disables it.
	Preprocess *preprocess.Config

	// EstimateInsert infers the library insert size from proper pairs
	// during scaffolding instead of trusting Scaffold.InsertMean.
	EstimateInsert bool

	// CheckpointDir, when set, saves each round's contigs and lets a
	// rerun resume from the latest completed round (MetaHipMer2's
	// --checkpoint).
	CheckpointDir string

	// Engine is the run's one local-assembly spec: which substrate
	// (Engine.Name, "" → cpu; the distributed runtime injects itself as
	// Engine.Instance), the walk parameters (Engine.Config), the device
	// driver's (Engine.GPU), and where every device of the run comes from
	// (Engine.Devices: the engine's and budget counting's;
	// nil = fresh V100s the run closes). Its worker count and driver budget
	// are the run's: EngineSpec fills them from Workers and MemBudget.
	Engine locassm.EngineSpec

	// Observer, when non-nil, receives stage start/finish callbacks with
	// per-stage Timings and WorkRecord deltas — the seam tracing and
	// metrics layers attach to.
	Observer Observer

	// MemBudget, when > 0, bounds the device bytes k-mer analysis may
	// hold at once: counting runs through the gpucount budget planner
	// (counting-Bloom prefilter + multi-pass partitioned counting on a
	// dedicated device) instead of the unbounded host map, so inputs
	// whose k-mer tables outgrow memory still assemble. Must be ≥
	// gpucount.MinMemBudget. The budget also caps the local-assembly
	// driver (see EngineSpec).
	MemBudget int64
	// MemPressure, when set alongside MemBudget, reports how many device
	// OOM events have fired by the given round (sticky); each one halves
	// the effective counting budget — the graceful-degradation path the
	// distributed runtime wires to its chaos injector in place of the
	// device→host fallback.
	MemPressure func(round int) int

	// Counter is where the run's k-mer analysis counts (nil: a fresh one).
	// A daemon worker hands every job it runs its own, so the largest
	// table and bins its jobs have needed stay allocated. Not for
	// concurrent runs.
	Counter *dbg.Counter
}

// EngineSpec returns Engine with the run's settings resolved into it: the
// host engine's Workers and, under a MemBudget, the device driver's budget —
// floored at locassm.MinDriverBudget, so a counting-sized budget never
// shrinks a batch below one item — each where Engine sets none. Every engine
// of the run is built from it, the dist runtime's rank engines included.
func (c *Config) EngineSpec() locassm.EngineSpec {
	spec := c.Engine
	if spec.Workers == 0 {
		spec.Workers = c.Workers
	}
	if c.MemBudget > 0 && spec.GPU.MemBudget == 0 {
		spec.GPU.MemBudget = max(c.MemBudget, locassm.MinDriverBudget)
	}
	return spec
}

// mergeParams resolves the effective read-merging parameters.
func (c *Config) mergeParams() (minOverlap int, maxMismatchFrac float64) {
	return cmp.Or(c.MergeMinOverlap, DefaultMergeMinOverlap), cmp.Or(c.MergeMaxMismatchFrac, DefaultMergeMaxMismatchFrac)
}

// DefaultConfig returns a scaled-down MetaHipMer-like configuration
// suitable for synthetic communities with 150 bp reads.
func DefaultConfig() Config {
	return Config{
		Rounds:               []int{21, 33, 55},
		MinCount:             2,
		Align:                align.DefaultConfig(),
		Scaffold:             scaffold.DefaultConfig(),
		MergeMinOverlap:      DefaultMergeMinOverlap,
		MergeMaxMismatchFrac: DefaultMergeMaxMismatchFrac,
		Engine: locassm.EngineSpec{
			Config: locassm.DefaultConfig(),
			GPU:    locassm.GPUConfig{WarpPerTable: true},
		},
	}
}

// Validate checks config consistency.
func (c *Config) Validate() error {
	if len(c.Rounds) == 0 {
		return fmt.Errorf("pipeline: no k rounds configured")
	}
	prev := 0
	for _, k := range c.Rounds {
		if k < 4 || k > kmer.MaxK {
			return fmt.Errorf("pipeline: round k %d outside [4,%d]", k, kmer.MaxK)
		}
		if k <= prev {
			return fmt.Errorf("pipeline: rounds must be strictly increasing, got %v", c.Rounds)
		}
		prev = k
	}
	if c.MinCount < 1 || c.MinCount > dbg.MaxExtCount {
		return fmt.Errorf("pipeline: MinCount %d outside [1,%d] (extension counts saturate at dbg.MaxExtCount)", c.MinCount, dbg.MaxExtCount)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("pipeline: MemBudget %d is negative", c.MemBudget)
	}
	if c.MemBudget > 0 && c.MemBudget < gpucount.MinMemBudget {
		return fmt.Errorf("pipeline: MemBudget %d below the %d-byte minimum (gpucount.MinMemBudget)", c.MemBudget, gpucount.MinMemBudget)
	}
	if c.MergeMinOverlap < 0 {
		return fmt.Errorf("pipeline: MergeMinOverlap %d < 0", c.MergeMinOverlap)
	}
	if c.MergeMaxMismatchFrac < 0 || c.MergeMaxMismatchFrac >= 1 {
		return fmt.Errorf("pipeline: MergeMaxMismatchFrac %g outside [0,1)", c.MergeMaxMismatchFrac)
	}
	if err := c.Align.Validate(); err != nil {
		return err
	}
	if err := c.Engine.Config.Validate(); err != nil {
		return err
	}
	return c.Scaffold.Validate()
}

// Result is a completed pipeline run.
type Result struct {
	Contigs   []dbg.Contig
	Scaffolds []scaffold.Scaffold
	Timings   Timings
	Work      WorkRecord
	Bins      []RoundBins
	// LAWorkload snapshots the final round's local-assembly input (contigs
	// before extension, with their candidate reads) — the "data dump" the
	// paper uses for standalone kernel studies (§4.1) and the base
	// workload of the cluster model.
	LAWorkload []*locassm.CtgWithReads
}
