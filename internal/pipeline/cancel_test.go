package pipeline

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"mhm2sim/internal/gpucount"
)

// cancelAfterObserver cancels the run's context from inside the n-th
// StageFinish callback — the tightest possible simulation of a job being
// killed at a stage boundary. It also accumulates the IOBytes deltas of
// the stages that did complete, since a canceled run returns no Result.
type cancelAfterObserver struct {
	cancel   context.CancelFunc
	after    int // cancel inside the after-th finish (0-based)
	finishes int
	ioBytes  int64
}

func (o *cancelAfterObserver) StageStart(StageEvent) {}

func (o *cancelAfterObserver) StageFinish(_ StageEvent, _ time.Duration, _ Timings, work WorkRecord) {
	o.ioBytes += work.IOBytes
	if o.finishes == o.after {
		o.cancel()
	}
	o.finishes++
}

// TestCancelResumeEveryStageBoundary kills a checkpointed run after each
// stage boundary in turn, resumes it, and asserts the resumed run's
// contigs and scaffolds are bit-identical to an uninterrupted run — the
// eviction contract the service scheduler relies on. It also closes the
// books on file I/O: the killed attempt's checkpoint bytes (observed
// through the Observer deltas) plus the resumed run's IOBytes must equal
// the uninterrupted run's total, i.e. no round's checkpoint is ever
// written twice and none is skipped.
func TestCancelResumeEveryStageBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes the pipeline once per stage boundary")
	}
	pairs := buildPairs(t)
	cfg := testPipelineConfig()

	// Reference: one uninterrupted checkpointed run.
	ref := cfg
	ref.CheckpointDir = t.TempDir()
	full, err := Run(pairs, ref)
	if err != nil {
		t.Fatal(err)
	}
	var fullOut bytes.Buffer
	if err := WriteFASTAOutputs(&fullOut, full); err != nil {
		t.Fatal(err)
	}
	// Count the run's stage executions so the kill sweep covers every
	// boundary: merge + 5 per round (incl. checkpoint I/O) + scaffold + I/O.
	totalStages := 1 + 5*len(cfg.Rounds) + 2

	for after := 0; after < totalStages-1; after++ {
		dir := t.TempDir()
		killed := cfg
		killed.CheckpointDir = dir
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAfterObserver{cancel: cancel, after: after}
		killed.Observer = obs

		res, err := RunContext(ctx, pairs, killed)
		cancel()
		if err == nil || res != nil {
			t.Fatalf("after=%d: killed run completed (err=%v)", after, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: error does not wrap context.Canceled: %v", after, err)
		}
		if obs.finishes != after+1 {
			t.Fatalf("after=%d: %d stages finished before the kill took effect",
				after, obs.finishes)
		}

		resumed := cfg
		resumed.CheckpointDir = dir
		res, err = Run(pairs, resumed)
		if err != nil {
			t.Fatalf("after=%d: resume failed: %v", after, err)
		}
		var out bytes.Buffer
		if err := WriteFASTAOutputs(&out, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), fullOut.Bytes()) {
			t.Errorf("after=%d: resumed output differs from uninterrupted run", after)
		}
		if got := obs.ioBytes + res.Work.IOBytes; got != full.Work.IOBytes {
			t.Errorf("after=%d: IOBytes books don't balance: killed %d + resumed %d = %d, want %d",
				after, obs.ioBytes, res.Work.IOBytes, got, full.Work.IOBytes)
		}
	}
}

// TestCancelBeforeStart: an already-canceled context never runs a stage.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs := &recordingObserver{}
	cfg := testPipelineConfig()
	cfg.Observer = obs
	res, err := RunContext(ctx, buildPairs(t), cfg)
	if err == nil || res != nil {
		t.Fatalf("canceled run completed: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if len(obs.starts) != 0 {
		t.Errorf("%d stages started under a canceled context", len(obs.starts))
	}
}

// cancelInStageObserver cancels the run's context as soon as the given stage
// starts, and records which stages finished.
type cancelInStageObserver struct {
	cancel   context.CancelFunc
	stage    Stage
	finishes []Stage
}

func (o *cancelInStageObserver) StageStart(ev StageEvent) {
	if ev.Stage == o.stage {
		o.cancel()
	}
}

func (o *cancelInStageObserver) StageFinish(ev StageEvent, _ time.Duration, _ Timings, _ WorkRecord) {
	o.finishes = append(o.finishes, ev.Stage)
}

// TestCancelInsideBudgetCounting cancels a run under the smallest memory
// budget while its first k-mer analysis is under way: budget counting checks
// the context per launch, so the stage returns without finishing its passes
// and the round never completes.
func TestCancelInsideBudgetCounting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelInStageObserver{cancel: cancel, stage: StageKmerAnalysis}
	cfg := testPipelineConfig()
	cfg.MemBudget = gpucount.MinMemBudget
	cfg.Observer = obs
	res, err := RunContext(ctx, buildPairs(t), cfg)
	if err == nil || res != nil {
		t.Fatalf("canceled run completed: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if want := []Stage{StageMergeReads}; !slices.Equal(obs.finishes, want) {
		t.Errorf("stages finished %v, want only %v: k-mer analysis ran to its end", obs.finishes, want)
	}
}
