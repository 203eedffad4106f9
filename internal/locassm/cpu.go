package locassm

import (
	"mhm2sim/internal/clock"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/par"
)

// WorkCounts tallies the algorithmic work of a local-assembly run; CPUCost
// converts these counts into modeled CPU time.
type WorkCounts struct {
	TableBuilds   int64 // hash-table constructions (one per mer size tried per side)
	KmersInserted int64 // Algorithm 1 insertions
	Lookups       int64 // Algorithm 2 hash probes
	WalkSteps     int64 // accepted extension steps
}

// Add accumulates o into w.
func (w *WorkCounts) Add(o WorkCounts) {
	w.TableBuilds += o.TableBuilds
	w.KmersInserted += o.KmersInserted
	w.Lookups += o.Lookups
	w.WalkSteps += o.WalkSteps
}

// CPUCost assigns one core's cost, in nanoseconds per operation, to the
// local-assembly operations (Algorithm 1 inserts, Algorithm 2 lookups and
// steps, per-table setup). It is the one CPU cost model: the cpu engine's
// Busy uses DefaultCPUCost as is, and cluster.Model rescales it against the
// paper's 64-node anchor.
type CPUCost struct {
	InsertNS float64 // hash + insert of one k-mer into the table
	LookupNS float64 // one walk-step table probe
	WalkNS   float64 // non-probe per-step bookkeeping
	BuildNS  float64 // per-table construction overhead
}

// DefaultCPUCost is plausible for a std::unordered-style table on a POWER9
// core, and is what cluster.Model.FitScaling starts from (EXPERIMENTS.md has
// the calibration record).
func DefaultCPUCost() CPUCost {
	return CPUCost{InsertNS: 55, LookupNS: 80, WalkNS: 10, BuildNS: 3000}
}

// NS converts work counts to single-core nanoseconds.
func (m CPUCost) NS(wc WorkCounts) float64 {
	return float64(wc.KmersInserted)*m.InsertNS +
		float64(wc.Lookups)*m.LookupNS +
		float64(wc.WalkSteps)*m.WalkNS +
		float64(wc.TableBuilds)*m.BuildNS
}

// Spread is the work's nanoseconds spread evenly over cores modeled cores.
func (m CPUCost) Spread(wc WorkCounts, cores int) float64 {
	return m.NS(wc) / float64(cores)
}

// Time is Spread on the cpu-model clock.
func (m CPUCost) Time(wc WorkCounts, cores int) clock.CPUModel {
	return clock.CPUModel(m.Spread(wc, cores))
}

// CPUResult is the outcome of a CPU local-assembly run.
type CPUResult struct {
	Results []Result
	Counts  WorkCounts
}

// RunCPU locally assembles every contig on the host using the flat-table
// engine, fanned out over `workers` goroutines (MetaHipMer uses every core
// on the node, §4.4) through the shared par helper, each with a fresh
// workspace. Results are returned in input order.
func RunCPU(ctgs []*CtgWithReads, cfg Config, workers int) (*CPUResult, error) {
	return runCPU(ctgs, cfg, make([]*cpuWorkspace, par.Workers(workers)))
}

// runCPU is RunCPU on one workspace per worker: worker w makes spaces[w]
// on its first span if it is nil, and on workspaces kept from an earlier
// run, steady-state extends allocate nothing.
func runCPU(ctgs []*CtgWithReads, cfg Config, spaces []*cpuWorkspace) (*CPUResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &CPUResult{Results: make([]Result, len(ctgs))}
	counts := make([]WorkCounts, len(spaces))

	par.ForEachSpan(len(spaces), len(ctgs), 0, func(wk int, s par.Span) {
		if spaces[wk] == nil {
			spaces[wk] = new(cpuWorkspace)
		}
		for i := s.Lo; i < s.Hi; i++ {
			var wc WorkCounts
			res.Results[i] = extendContigCPU(spaces[wk], ctgs[i], &cfg, &wc)
			counts[wk].Add(wc)
		}
	})

	for i := range counts {
		res.Counts.Add(counts[i])
	}
	return res, nil
}

// extendContigCPU runs both side extensions for one contig on the
// flat-table engine. Beyond the Result extension slices it returns (which
// must outlive the workspace), a warm workspace makes this allocation-free.
func extendContigCPU(ws *cpuWorkspace, c *CtgWithReads, cfg *Config, wc *WorkCounts) Result {
	r := Result{ID: c.ID}

	if len(c.RightReads) > 0 {
		ext, state, iters := ws.extendSide(c.Seq, c.RightReads, cfg, wc)
		r.RightExt, r.RightState = cloneExt(ext), state
		r.Iters += iters
	}
	if len(c.LeftReads) > 0 {
		// Left extension reuses the rightward walker on the reverse
		// complement, then flips the walked bases back (§2.3: the same
		// algorithm is repeated for both sides).
		rcSeq, rcReads := ws.prepLeft(c, cfg)
		ext, state, iters := ws.extendSide(rcSeq, rcReads, cfg, wc)
		r.LeftExt, r.LeftState = cloneExt(ext), state
		dna.RevCompInPlace(r.LeftExt)
		r.Iters += iters
	}
	return r
}
