package pipeline

import (
	"context"
	"fmt"
	"time"
)

// The stage graph makes the Fig 1 dataflow explicit: pipeline.Run builds a
// sequence of stage executions — merge reads, then per contigging round
// {k-mer analysis → contig generation → alignment → local assembly
// [→ checkpoint I/O]}, then scaffolding and file I/O — and a small driver
// executes them in order, owning per-stage timing, checkpoint persistence,
// and the Observer callbacks. Stage bodies only transform runState; they
// never write Timings, so every crosscutting concern lives in exactly one
// place.

// StageEvent identifies one execution of a stage in the Fig 1 graph.
type StageEvent struct {
	// Stage is the Fig 2 timing category the execution is billed to.
	Stage Stage
	// Name is the human-readable stage name (Stage.String()).
	Name string
	// Round is the 0-based contigging round, or -1 for the stages outside
	// the round loop (merge reads, scaffolding, final file I/O).
	Round int
	// K is the round's k-mer size (0 outside the round loop).
	K int
}

// Observer receives stage-lifecycle callbacks from the pipeline driver —
// the seam tracing, metrics, and progress layers attach to. StageFinish
// carries the stage's deltas: its wall time, the per-category Timings it
// accumulated (usually only ev.Stage, but the alignment stage splits into
// alignment + aln kernel), and the WorkRecord counters it added (kernel
// lists in the delta hold only the launches of this stage). Callbacks run
// synchronously on the pipeline goroutine, in graph order; implementations
// must not mutate the deltas' slices.
type Observer interface {
	StageStart(ev StageEvent)
	StageFinish(ev StageEvent, wall time.Duration, timings Timings, work WorkRecord)
}

// outerEvent builds the event for a stage outside the round loop.
func outerEvent(s Stage) StageEvent {
	return StageEvent{Stage: s, Name: s.String(), Round: -1}
}

// roundEvent builds the event for a stage inside contigging round ri (k).
func roundEvent(s Stage, ri, k int) StageEvent {
	return StageEvent{Stage: s, Name: s.String(), Round: ri, K: k}
}

// stageDriver executes stage bodies sequentially. It owns the clock: the
// measured wall time of each body is credited to the event's timing
// category, and Observer deltas are computed from Timings/WorkRecord
// snapshots around the body. It also owns cancellation: the context is
// checked once per stage boundary, so a canceled run never starts another
// stage (checkpoints written by completed stages stay valid). The first
// failure, a stage's error or the cancellation, sticks in err, and no
// stage runs after it.
type stageDriver struct {
	ctx context.Context
	res *Result
	obs Observer // nil = no observer
	err error
}

// exec runs one stage, unless one has failed, and bills its measured wall
// time to ev.Stage. The alignment stage alone passes kernelShare: the
// fraction of its wall, read after the body has run, that is billed to the
// aln-kernel category instead, so the two categories always sum to the
// stage's wall.
func (d *stageDriver) exec(ev StageEvent, kernelShare *float64, body func() error) {
	if d.err != nil {
		return
	}
	if err := d.ctx.Err(); err != nil {
		d.err = fmt.Errorf("pipeline: canceled before %s stage: %w", ev.Name, err)
		return
	}
	timingsBefore := d.res.Timings
	workBefore := d.res.Work
	if d.obs != nil {
		d.obs.StageStart(ev)
	}
	t0 := time.Now()
	d.err = body()
	wall := time.Since(t0)
	var kernel time.Duration
	if kernelShare != nil {
		kernel = time.Duration(float64(wall) * *kernelShare)
		d.res.Timings.Add(StageAlnKernel, kernel)
	}
	d.res.Timings.Add(ev.Stage, wall-kernel)
	if d.err == nil && d.obs != nil {
		d.obs.StageFinish(ev, wall,
			d.res.Timings.diff(timingsBefore), d.res.Work.diff(workBefore))
	}
}

// diff returns the per-stage wall time accumulated since prev.
func (t Timings) diff(prev Timings) Timings {
	for s := range t.Wall {
		t.Wall[s] -= prev.Wall[s]
	}
	return t
}

// diff returns the work added since prev: numeric counters are
// subtracted, kernel lists are sliced to the newly appended launches
// (views into the live lists — read-only for observers).
func (w WorkRecord) diff(prev WorkRecord) WorkRecord {
	w.KmerOccurrences -= prev.KmerOccurrences
	w.Locassm.TableBuilds -= prev.Locassm.TableBuilds
	w.Locassm.KmersInserted -= prev.Locassm.KmersInserted
	w.Locassm.Lookups -= prev.Locassm.Lookups
	w.Locassm.WalkSteps -= prev.Locassm.WalkSteps
	w.GPUKernels = w.GPUKernels[len(prev.GPUKernels):]
	w.GPUKernelTime -= prev.GPUKernelTime
	w.GPUTransferTime -= prev.GPUTransferTime
	w.IOBytes -= prev.IOBytes
	w.Preprocess.PairsIn -= prev.Preprocess.PairsIn
	w.Preprocess.PairsOut -= prev.Preprocess.PairsOut
	w.Preprocess.PairsDropped -= prev.Preprocess.PairsDropped
	w.Preprocess.AdapterTrimmed -= prev.Preprocess.AdapterTrimmed
	w.Preprocess.QualityTrimmed -= prev.Preprocess.QualityTrimmed
	w.Preprocess.BasesRemoved -= prev.Preprocess.BasesRemoved
	w.KmerBudget = w.KmerBudget.Sub(prev.KmerBudget)
	w.EstimatedInsert -= prev.EstimatedInsert
	return w
}
