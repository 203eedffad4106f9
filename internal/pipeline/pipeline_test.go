package pipeline

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/preprocess"
	"mhm2sim/internal/synth"
)

// smallPreset builds a fast test community.
func smallPreset() synth.Preset {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 3
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 6_000, 9_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 14
	p.Reads.ErrorRate = 0.002
	return p
}

func testPipelineConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = []int{21, 33}
	return cfg
}

// buildPairs is smallPreset's reads, built once per test binary. Runs never
// write to their input.
func buildPairs(t testing.TB) []dna.PairedRead {
	t.Helper()
	fixture.pairsOnce.Do(func() { _, fixture.pairs, fixture.pairsErr = smallPreset().Build() })
	if fixture.pairsErr != nil {
		t.Fatal(fixture.pairsErr)
	}
	return fixture.pairs
}

// reference is the cpu engine's run of testPipelineConfig on buildPairs,
// run once per test binary: the assembly every engine must reproduce.
func reference(t testing.TB) *Result {
	t.Helper()
	pairs := buildPairs(t)
	fixture.refOnce.Do(func() { fixture.ref, fixture.refErr = Run(pairs, testPipelineConfig()) })
	if fixture.refErr != nil {
		t.Fatal(fixture.refErr)
	}
	return fixture.ref
}

var fixture struct {
	pairsOnce, refOnce sync.Once
	pairs              []dna.PairedRead
	ref                *Result
	pairsErr, refErr   error
}

func TestMergePairsOverlap(t *testing.T) {
	genome := []byte("ACGGTTAACCGGATCCGGAAGGTTCCAATTGGCCTTAGGACTGACTGAACGGTCCAAGGTT")
	frag := genome[:50]
	fwd := dna.Read{ID: "p/1", Seq: append([]byte(nil), frag[:30]...), Qual: bytes.Repeat([]byte("I"), 30)}
	rev := dna.Read{ID: "p/2", Seq: dna.RevComp(frag[20:]), Qual: bytes.Repeat([]byte("I"), 30)}
	out := mergePairs([]dna.PairedRead{{Fwd: fwd, Rev: rev}}, 5, 0.1)
	if len(out) != 1 {
		t.Fatalf("pair did not merge: %d reads out", len(out))
	}
	if string(out[0].Seq) != string(frag) {
		t.Errorf("merged read:\n got %s\nwant %s", out[0].Seq, frag)
	}
	if len(out[0].Qual) != len(out[0].Seq) {
		t.Error("merged qualities length mismatch")
	}
}

func TestMergePairsNoOverlap(t *testing.T) {
	fwd := dna.Read{ID: "p/1", Seq: []byte("AAAAAAAAAACCCCCCCCCC"), Qual: bytes.Repeat([]byte("I"), 20)}
	rev := dna.Read{ID: "p/2", Seq: []byte("ACGTAGCTAGGATCCATGCA"), Qual: bytes.Repeat([]byte("I"), 20)}
	out := mergePairs([]dna.PairedRead{{Fwd: fwd, Rev: rev}}, 10, 0.05)
	if len(out) != 2 {
		t.Fatalf("non-overlapping pair merged: %d reads out", len(out))
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testPipelineConfig()
	cfg.Rounds = nil
	if cfg.Validate() == nil {
		t.Error("empty rounds accepted")
	}
	cfg = testPipelineConfig()
	cfg.Rounds = []int{33, 21}
	if cfg.Validate() == nil {
		t.Error("non-increasing rounds accepted")
	}
	cfg = testPipelineConfig()
	cfg.MinCount = 0
	if cfg.Validate() == nil {
		t.Error("MinCount 0 accepted")
	}
	cfg = testPipelineConfig()
	cfg.MergeMinOverlap = -1
	if cfg.Validate() == nil {
		t.Error("negative MergeMinOverlap accepted")
	}
	cfg = testPipelineConfig()
	cfg.MergeMaxMismatchFrac = 1.5
	if cfg.Validate() == nil {
		t.Error("MergeMaxMismatchFrac ≥ 1 accepted")
	}
	cfg = testPipelineConfig()
	cfg.MergeMaxMismatchFrac = -0.1
	if cfg.Validate() == nil {
		t.Error("negative MergeMaxMismatchFrac accepted")
	}
}

func TestMergeParamDefaults(t *testing.T) {
	var cfg Config // zero-valued: both parameters fall back to defaults
	ov, mm := cfg.mergeParams()
	if ov != DefaultMergeMinOverlap || mm != DefaultMergeMaxMismatchFrac {
		t.Errorf("zero config resolved to (%d, %g)", ov, mm)
	}
	cfg.MergeMinOverlap, cfg.MergeMaxMismatchFrac = 35, 0.02
	if ov, mm = cfg.mergeParams(); ov != 35 || mm != 0.02 {
		t.Errorf("explicit params not honored: (%d, %g)", ov, mm)
	}
}

// TestMergeConfigChangesMerging: a min overlap larger than the true overlap
// must prevent the pair from merging, proving the lifted parameters reach
// the merge stage.
func TestMergeConfigChangesMerging(t *testing.T) {
	genome := []byte("ACGGTTAACCGGATCCGGAAGGTTCCAATTGGCCTTAGGACTGACTGAACGGTCCAAGGTT")
	frag := genome[:50]
	fwd := dna.Read{ID: "p/1", Seq: append([]byte(nil), frag[:30]...), Qual: bytes.Repeat([]byte("I"), 30)}
	rev := dna.Read{ID: "p/2", Seq: dna.RevComp(frag[20:]), Qual: bytes.Repeat([]byte("I"), 30)}
	pairs := []dna.PairedRead{{Fwd: fwd, Rev: rev}}

	loose := Config{MergeMinOverlap: 5, MergeMaxMismatchFrac: 0.1}
	ov, mm := loose.mergeParams()
	if out := mergePairs(pairs, ov, mm); len(out) != 1 {
		t.Fatalf("overlap 10 with min 5: pair did not merge (%d reads)", len(out))
	}
	strict := Config{MergeMinOverlap: 15, MergeMaxMismatchFrac: 0.1}
	ov, mm = strict.mergeParams()
	if out := mergePairs(pairs, ov, mm); len(out) != 2 {
		t.Fatalf("overlap 10 with min 15: pair merged anyway")
	}
}

func TestStageString(t *testing.T) {
	if StageLocalAssembly.String() != "local assembly" {
		t.Error("stage name wrong")
	}
	if Stage(99).String() != "unknown" {
		t.Error("out of range stage")
	}
}

func TestPipelineEndToEndCPU(t *testing.T) {
	pairs, res := buildPairs(t), reference(t)
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	if len(res.Scaffolds) == 0 {
		t.Fatal("no scaffolds")
	}
	// Sanity on assembly quality: the largest contig should be a large
	// multiple of the read length.
	maxLen := 0
	var totalLen int64
	for _, c := range res.Contigs {
		if len(c.Seq) > maxLen {
			maxLen = len(c.Seq)
		}
		totalLen += int64(len(c.Seq))
	}
	if maxLen < 1000 {
		t.Errorf("largest contig only %d bases", maxLen)
	}
	// Timings: every stage ran.
	for s := Stage(0); s < NumStages; s++ {
		if res.Timings.Wall[s] <= 0 {
			t.Errorf("stage %s recorded no time", s)
		}
	}
	if res.Timings.Total() <= 0 {
		t.Error("total time not positive")
	}
	// Work record populated.
	w := res.Work
	if w.InputReads != 2*len(pairs) || w.MergedReads == 0 || w.KmerOccurrences == 0 ||
		w.DistinctKmers == 0 || w.ReadsAligned == 0 || w.AlnCells == 0 ||
		w.Locassm.KmersInserted == 0 || w.IOBytes == 0 {
		t.Errorf("work record incomplete: %+v", w)
	}
	// Bin stats recorded per round.
	if len(res.Bins) != 2 {
		t.Fatalf("bin stats for %d rounds, want 2", len(res.Bins))
	}
	for _, b := range res.Bins {
		if b.Zero+b.Small+b.Large == 0 {
			t.Errorf("round k=%d: empty bins", b.K)
		}
	}
}

func TestPipelineLocalAssemblyGrowsContigs(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one round, local assembly should have extended at least some
	// contigs beyond pure de Bruijn traversal: compare against a run whose
	// local assembly is effectively disabled (MaxWalkLen=1 permits almost
	// nothing).
	cfg2 := cfg
	cfg2.Engine.Config.MaxWalkLen = 1
	res2, err := Run(pairs, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var grown, base int64
	for _, c := range res.Contigs {
		grown += int64(len(c.Seq))
	}
	for _, c := range res2.Contigs {
		base += int64(len(c.Seq))
	}
	if grown <= base {
		t.Errorf("local assembly added no bases: %d vs %d", grown, base)
	}
}

func TestWriteFASTAOutputs(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTAOutputs(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, ">contig_") || !strings.Contains(out, ">scaffold_") {
		t.Error("FASTA output missing records")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	a, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contigs) != len(b.Contigs) {
		t.Fatalf("contig counts differ across identical runs: %d vs %d", len(a.Contigs), len(b.Contigs))
	}
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i].Seq, b.Contigs[i].Seq) {
			t.Fatalf("contig %d not deterministic", i)
		}
	}
}

func TestPipelineWithPreprocessing(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	pp := preprocess.DefaultConfig()
	cfg.Preprocess = &pp

	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work.Preprocess.PairsIn != len(pairs) {
		t.Errorf("preprocess saw %d pairs, want %d", res.Work.Preprocess.PairsIn, len(pairs))
	}
	if res.Work.Preprocess.PairsOut == 0 {
		t.Error("preprocessing dropped everything")
	}
	if len(res.Contigs) == 0 {
		t.Error("no contigs after preprocessing")
	}
	// Caller's pairs must be untouched (preprocessing works on copies).
	for i := range pairs {
		if len(pairs[i].Fwd.Seq) != 150 {
			t.Fatalf("caller's read %d was trimmed in place", i)
		}
	}
}

func TestPipelineInsertEstimation(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	cfg.EstimateInsert = true
	// Deliberately wrong configured insert: estimation should recover the
	// truth (the preset samples ~350 bp fragments).
	cfg.Scaffold.InsertMean = 1000

	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work.EstimatedInsert == 0 {
		t.Fatal("insert size not estimated")
	}
	if res.Work.EstimatedInsert < 280 || res.Work.EstimatedInsert > 420 {
		t.Errorf("estimated insert %d, truth ~350", res.Work.EstimatedInsert)
	}
}
