package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/locassm"
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
		var occurrences int64
		var las locassm.WorkCounts
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
			occurrences += obs.works[i].KmerOccurrences
			las.Add(obs.works[i].Locassm)
			kmerBudget.Add(obs.works[i].KmerBudget)

			if ev.Stage == StageLocalAssembly && obs.works[i].Locassm.TableBuilds <= 0 {
				t.Errorf("round %d local assembly: no table builds in delta", ev.Round)
			}
		}
		// Deltas reassemble the final record exactly.
		if sum != res.Timings {
			t.Errorf("timing deltas don't sum to the result: got %+v, want %+v", sum, res.Timings)
		}
		if occurrences != res.Work.KmerOccurrences {
			t.Errorf("k-mer occurrence deltas sum to %d, want %d", occurrences, res.Work.KmerOccurrences)
		}
		if las != res.Work.Locassm {
			t.Errorf("local-assembly deltas sum to %+v, want %+v", las, res.Work.Locassm)
		}
		if (budget > 0) != (kmerBudget.Passes > 0) || kmerBudget != res.Work.KmerBudget {
			t.Errorf("budget %d: counting deltas re-add to %+v, want %+v", budget, kmerBudget, res.Work.KmerBudget)
		}
	}
}

// TestWorkRecordDiffCoversEveryField: diff turns every counter of a
// WorkRecord into a delta and every kernel list into its new launches. A
// field diff leaves out would hand observers the cumulative value instead.
// Each numeric leaf is 1 before and 3 after, each slice of length 1 and 3;
// the delta must be 2 and of length 2 everywhere. KmerBudget is exempt:
// BudgetStats.Sub has its own rules (TestObserverDeltas checks them).
func TestWorkRecordDiffCoversEveryField(t *testing.T) {
	// leaves calls leaf on every numeric field and slice under v, by path.
	var leaves func(path string, v reflect.Value, leaf func(string, reflect.Value))
	leaves = func(path string, v reflect.Value, leaf func(string, reflect.Value)) {
		if v.Kind() != reflect.Struct {
			leaf(path, v)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; path != "" || name != "KmerBudget" {
				leaves(path+"."+name, v.Field(i), leaf)
			}
		}
	}
	fill := func(n int) WorkRecord {
		var w WorkRecord
		leaves("", reflect.ValueOf(&w).Elem(), func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(int64(n))
			case reflect.Slice:
				v.Set(reflect.MakeSlice(v.Type(), n, n))
			default:
				t.Fatalf("%s: no fill for a %s", path, v.Type())
			}
		})
		return w
	}
	d := fill(3).diff(fill(1))
	leaves("", reflect.ValueOf(d), func(path string, v reflect.Value) {
		if v.Kind() == reflect.Slice && v.Len() != 2 {
			t.Errorf("%s: delta of a 1 → 3 list has %d entries, want 2", path, v.Len())
		} else if v.Kind() != reflect.Slice && v.Int() != 2 {
			t.Errorf("%s: delta of 1 → 3 is %d, want 2", path, v.Int())
		}
	})
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
