package pipeline

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// FuzzLoadRound: any bytes in a round's checkpoint file yield an error or
// contigs from both loadRound and resumePoint, with no panic and an
// allocation bounded by the input. Loaded contigs whose sequences are bases
// survive saveRound → loadRound unchanged — IDs, sequences and Depth bits —
// which the seeds, saveRound's own output, exercise for awkward depths.
func FuzzLoadRound(f *testing.F) {
	for _, ctgs := range [][]dbg.Contig{
		{{ID: 3, Seq: []byte("ACGTACGTACGT"), Depth: 7.25}, {ID: 9, Seq: bytes.Repeat([]byte("GATTACA"), 30), Depth: 1.0 / 3}},
		{{ID: 0, Seq: []byte("A"), Depth: math.SmallestNonzeroFloat64}, {ID: -1, Seq: nil, Depth: math.Copysign(0, -1)},
			{ID: math.MaxInt64, Seq: []byte("NNNN"), Depth: math.Inf(1)}, {ID: 5, Seq: []byte("CC"), Depth: math.NaN()}},
	} {
		dir := f.TempDir()
		if _, err := saveRound(dir, 21, ctgs); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(ckptName(dir, 21))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	for _, in := range []string{"", ">", "ACGT\n", ">contig_x|depth=y\nAC\r\nGT\n", ">contig_7|contig_8|depth=1e400\n\n>\n"} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(ckptName(dir, 21), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctgs, ok, err := loadRound(dir, 21)
		runtime.ReadMemStats(&after)
		// The FASTA reader's 1 MiB line buffer, then what the input holds.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+64*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		resumed, skip, rerr := resumePoint(dir, []int{21, 33})
		if (err == nil) != (rerr == nil) {
			t.Fatalf("loadRound err %v, resumePoint err %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !ok || skip != 1 || len(resumed) != len(ctgs) {
			t.Fatalf("ok=%v skip=%d: resumePoint gave %d contigs, loadRound %d", ok, skip, len(resumed), len(ctgs))
		}
		for _, c := range ctgs {
			if len(bytes.Trim(c.Seq, "ACGTN")) > 0 {
				return // not a checkpoint saveRound writes
			}
		}
		if _, err := saveRound(dir, 33, ctgs); err != nil {
			t.Fatal(err)
		}
		back, _, err := loadRound(dir, 33)
		if err != nil {
			t.Fatalf("reloading a saved round: %v", err)
		}
		if len(back) != len(ctgs) {
			t.Fatalf("%d contigs saved, %d loaded back", len(ctgs), len(back))
		}
		for i := range ctgs {
			if back[i].ID != ctgs[i].ID || !bytes.Equal(back[i].Seq, ctgs[i].Seq) ||
				math.Float64bits(back[i].Depth) != math.Float64bits(ctgs[i].Depth) {
				t.Fatalf("contig %d: saved %+v, loaded %+v", i, ctgs[i], back[i])
			}
		}
	})
}
