package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mhm2sim/internal/dbg"
)

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctgs := []dbg.Contig{
		{ID: 3, Seq: []byte("ACGTACGTACGT"), Depth: 7.25},
		{ID: 9, Seq: []byte("GGGGCCCCAAAA"), Depth: 2.5},
	}
	if _, err := saveRound(dir, 21, ctgs); err != nil {
		t.Fatal(err)
	}
	back, ok, err := loadRound(dir, 21)
	if err != nil || !ok {
		t.Fatalf("load failed: %v %v", ok, err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d contigs", len(back))
	}
	for i := range ctgs {
		if back[i].ID != ctgs[i].ID || !bytes.Equal(back[i].Seq, ctgs[i].Seq) ||
			back[i].Depth != ctgs[i].Depth {
			t.Errorf("contig %d: %+v vs %+v", i, back[i], ctgs[i])
		}
	}
	// Missing round.
	if _, ok, err := loadRound(dir, 33); ok || err != nil {
		t.Errorf("missing round: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointResumePoint(t *testing.T) {
	dir := t.TempDir()
	saveRound(dir, 21, []dbg.Contig{{ID: 1, Seq: []byte("AAAA")}})
	saveRound(dir, 33, []dbg.Contig{{ID: 2, Seq: []byte("CCCC")}})
	// k=55 missing: resume after two rounds.
	ctgs, skip, err := resumePoint(dir, []int{21, 33, 55})
	if err != nil {
		t.Fatal(err)
	}
	if skip != 2 || len(ctgs) != 1 || string(ctgs[0].Seq) != "CCCC" {
		t.Fatalf("resume: skip=%d ctgs=%v", skip, ctgs)
	}
	// No checkpoints at all.
	_, skip, err = resumePoint(t.TempDir(), []int{21})
	if err != nil || skip != 0 {
		t.Fatalf("empty dir: skip=%d err=%v", skip, err)
	}
}

func TestCheckpointCorrupt(t *testing.T) {
	dir := t.TempDir()
	for _, torn := range []string{"not fasta\n>x", ">contig_0|depth=2\nACGT\n>"} {
		os.WriteFile(filepath.Join(dir, "contigs-k21.fasta"), []byte(torn), 0o644)
		if _, _, err := resumePoint(dir, []int{21}); err == nil {
			t.Errorf("corrupt checkpoint %q accepted", torn)
		}
	}
}

func TestPipelineResumesFromCheckpoint(t *testing.T) {
	pairs := buildPairs(t)
	dir := t.TempDir()
	cfg := testPipelineConfig()
	cfg.CheckpointDir = dir

	first, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints exist for both rounds.
	for _, k := range cfg.Rounds {
		if _, err := os.Stat(ckptName(dir, k)); err != nil {
			t.Fatalf("checkpoint for k=%d missing: %v", k, err)
		}
	}

	// Rerun with a tiny read subset: if the checkpoint is honored, the
	// final contigs still match the first run (all rounds skipped).
	second, err := Run(pairs[:10], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Contigs) != len(first.Contigs) {
		t.Fatalf("resumed run has %d contigs, first %d", len(second.Contigs), len(first.Contigs))
	}
	for i := range first.Contigs {
		if !bytes.Equal(first.Contigs[i].Seq, second.Contigs[i].Seq) {
			t.Fatalf("contig %d differs after resume", i)
		}
	}
	// The resumed run must have skipped k-mer analysis entirely.
	if second.Timings.Wall[StageKmerAnalysis] > first.Timings.Wall[StageKmerAnalysis]/2 {
		t.Error("resumed run appears to have recomputed the rounds")
	}
}
