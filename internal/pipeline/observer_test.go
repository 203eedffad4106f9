package pipeline

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mhm2sim/internal/gpucount"
)

// recordingObserver captures every stage callback in order.
type recordingObserver struct {
	starts   []StageEvent
	finishes []StageEvent
	walls    []time.Duration
	timings  []Timings
	works    []WorkRecord
}

func (o *recordingObserver) StageStart(ev StageEvent) {
	o.starts = append(o.starts, ev)
}

func (o *recordingObserver) StageFinish(ev StageEvent, wall time.Duration, timings Timings, work WorkRecord) {
	o.finishes = append(o.finishes, ev)
	o.walls = append(o.walls, wall)
	o.timings = append(o.timings, timings)
	o.works = append(o.works, work)
}

// TestObserverStageOrder: a two-round run fires every stage exactly once per
// round, in Fig 1 order, with start/finish pairs balanced.
func TestObserverStageOrder(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	obs := &recordingObserver{}
	cfg.Observer = obs
	if _, err := Run(pairs, cfg); err != nil {
		t.Fatal(err)
	}

	want := []StageEvent{
		{Stage: StageMergeReads, Round: -1},
		{Stage: StageKmerAnalysis, Round: 0, K: 21},
		{Stage: StageContigGen, Round: 0, K: 21},
		{Stage: StageAlignment, Round: 0, K: 21},
		{Stage: StageLocalAssembly, Round: 0, K: 21},
		{Stage: StageKmerAnalysis, Round: 1, K: 33},
		{Stage: StageContigGen, Round: 1, K: 33},
		{Stage: StageAlignment, Round: 1, K: 33},
		{Stage: StageLocalAssembly, Round: 1, K: 33},
		{Stage: StageScaffolding, Round: -1},
		{Stage: StageFileIO, Round: -1},
	}
	for i := range want {
		want[i].Name = want[i].Stage.String()
	}

	if len(obs.starts) != len(want) || len(obs.finishes) != len(want) {
		t.Fatalf("got %d starts / %d finishes, want %d each",
			len(obs.starts), len(obs.finishes), len(want))
	}
	for i, ev := range want {
		if obs.starts[i] != ev {
			t.Errorf("start %d: got %+v, want %+v", i, obs.starts[i], ev)
		}
		if obs.finishes[i] != ev {
			t.Errorf("finish %d: got %+v, want %+v", i, obs.finishes[i], ev)
		}
	}
}

// TestObserverDeltas: each finish carries the stage's own timing and work
// deltas, not cumulative totals — the budget-counting stats of a MemBudget
// run included.
func TestObserverDeltas(t *testing.T) {
	pairs := buildPairs(t)
	for _, budget := range []int64{0, 1 << 20} {
		cfg := testPipelineConfig()
		cfg.MemBudget = budget
		obs := &recordingObserver{}
		cfg.Observer = obs
		res, err := Run(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}

		var sum Timings
		mergedReads := 0
		var distinct int64
		var kmerBudget gpucount.BudgetStats
		for i, ev := range obs.finishes {
			d := obs.timings[i]
			// Every stage but alignment bills its delta to its own category.
			if ev.Stage != StageAlignment {
				if d.Wall[ev.Stage] <= 0 {
					t.Errorf("%s: zero timing delta", ev.Name)
				}
				if d.Total() != d.Wall[ev.Stage] {
					t.Errorf("%s: delta spills into other categories: %+v", ev.Name, d.Wall)
				}
			} else if d.Wall[StageAlignment]+d.Wall[StageAlnKernel] <= 0 {
				t.Errorf("alignment: zero timing delta")
			}
			for s := range d.Wall {
				sum.Wall[s] += d.Wall[s]
			}
			mergedReads += obs.works[i].MergedReads
			distinct += obs.works[i].DistinctKmers
			kmerBudget.Add(obs.works[i].KmerBudget)

			switch ev.Stage {
			case StageLocalAssembly:
				if obs.works[i].Locassm.TableBuilds <= 0 {
					t.Errorf("round %d local assembly: no table builds in delta", ev.Round)
				}
			case StageContigGen:
				if obs.works[i].ContigsGenerated != 0 {
					// ContigsGenerated is only set after the round loop; stage
					// deltas must not claim it.
					t.Errorf("round %d contig generation: unexpected ContigsGenerated delta %d",
						ev.Round, obs.works[i].ContigsGenerated)
				}
			}
		}
		// Deltas reassemble the final record exactly.
		if sum != res.Timings {
			t.Errorf("timing deltas don't sum to the result: got %+v, want %+v", sum, res.Timings)
		}
		if mergedReads != res.Work.MergedReads {
			t.Errorf("merged-read deltas sum to %d, want %d", mergedReads, res.Work.MergedReads)
		}
		if distinct != res.Work.DistinctKmers {
			t.Errorf("distinct-kmer deltas sum to %d, want %d", distinct, res.Work.DistinctKmers)
		}
		if (budget > 0) != (kmerBudget.Passes > 0) || kmerBudget != res.Work.KmerBudget {
			t.Errorf("budget %d: counting deltas re-add to %+v, want %+v", budget, kmerBudget, res.Work.KmerBudget)
		}
	}
}

// TestAlignmentSplitAnyCoreCount: the alignment stage's two categories are
// both credited and sum to the stage's wall however many workers align at
// once. Subtracting the workers' summed kernel time (CPU time) from the wall
// used to leave the alignment category at zero on two or more cores.
func TestAlignmentSplitAnyCoreCount(t *testing.T) {
	pairs := buildPairs(t)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := testPipelineConfig() // Workers 0: one per GOMAXPROCS
			obs := &recordingObserver{}
			cfg.Observer = obs
			if _, err := Run(pairs, cfg); err != nil {
				t.Fatal(err)
			}
			rounds := 0
			for i, ev := range obs.finishes {
				if ev.Stage != StageAlignment {
					continue
				}
				rounds++
				aln, kernel := obs.timings[i].Wall[StageAlignment], obs.timings[i].Wall[StageAlnKernel]
				if aln <= 0 || kernel <= 0 {
					t.Errorf("round %d: alignment %v, aln kernel %v; both must be credited", ev.Round, aln, kernel)
				}
				if aln+kernel != obs.walls[i] {
					t.Errorf("round %d: alignment %v + aln kernel %v != stage wall %v", ev.Round, aln, kernel, obs.walls[i])
				}
			}
			if rounds != len(cfg.Rounds) {
				t.Errorf("%d alignment stages for %d rounds", rounds, len(cfg.Rounds))
			}
		})
	}
}

// TestObserverCheckpointIO: with checkpointing on, each round additionally
// fires a file-I/O stage whose delta carries the bytes written.
func TestObserverCheckpointIO(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.CheckpointDir = t.TempDir()
	obs := &recordingObserver{}
	cfg.Observer = obs
	if _, err := Run(pairs, cfg); err != nil {
		t.Fatal(err)
	}
	ioRounds := 0
	for i, ev := range obs.finishes {
		if ev.Stage == StageFileIO && ev.Round >= 0 {
			ioRounds++
			if obs.works[i].IOBytes <= 0 {
				t.Errorf("round %d checkpoint: no IOBytes delta", ev.Round)
			}
		}
	}
	if ioRounds != len(cfg.Rounds) {
		t.Errorf("%d checkpoint I/O stages for %d rounds", ioRounds, len(cfg.Rounds))
	}
}
