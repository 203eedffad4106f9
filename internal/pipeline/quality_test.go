package pipeline

import (
	"testing"

	"mhm2sim/internal/quality"
	"mhm2sim/internal/synth"
)

// TestLocalAssemblyImprovesContiguity verifies the reason local assembly
// exists (§2.3): against the same truth community, the pipeline with local
// assembly produces a more contiguous assembly than without, and does not
// introduce misassemblies while doing so.
func TestLocalAssemblyImprovesContiguity(t *testing.T) {
	if testing.Short() {
		t.Skip("quality evaluation is expensive")
	}
	p := smallPreset()
	com, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	genomes := make([][]byte, len(com.Genomes))
	var genomeSize int64
	for i := range com.Genomes {
		genomes[i] = com.Genomes[i].Seq
		genomeSize += int64(len(genomes[i]))
	}

	run := func(withLA bool) *quality.Report {
		cfg := testPipelineConfig()
		cfg.Rounds = []int{21}
		if !withLA {
			cfg.Engine.Config.MaxWalkLen = 1 // effectively disables extension
		}
		res, err := Run(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([][]byte, len(res.Contigs))
		for i := range res.Contigs {
			seqs[i] = res.Contigs[i].Seq
		}
		rep, err := quality.Evaluate(seqs, genomes, quality.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	with := run(true)
	without := run(false)

	t.Logf("with LA:    NG50=%d frac=%.3f mis=%d",
		with.Contigs.NG50, with.GenomeFraction, with.Misassemblies)
	t.Logf("without LA: NG50=%d frac=%.3f mis=%d",
		without.Contigs.NG50, without.GenomeFraction, without.Misassemblies)

	// NG50 normalizes by the (fixed) genome size, so extension can only
	// help it; assembly-relative N50 is confounded by total-size growth.
	if with.Contigs.NG50 < without.Contigs.NG50 {
		t.Errorf("local assembly did not improve contiguity: NG50 %d vs %d",
			with.Contigs.NG50, without.Contigs.NG50)
	}
	if with.GenomeFraction <= without.GenomeFraction {
		t.Errorf("local assembly did not extend into uncovered sequence: %.3f vs %.3f",
			with.GenomeFraction, without.GenomeFraction)
	}
	if with.GenomeFraction < without.GenomeFraction-0.01 {
		t.Errorf("local assembly lost genome fraction: %.3f vs %.3f",
			with.GenomeFraction, without.GenomeFraction)
	}
	if with.Misassemblies > without.Misassemblies+1 {
		t.Errorf("local assembly introduced misassemblies: %d vs %d",
			with.Misassemblies, without.Misassemblies)
	}
	if with.MismatchRate > 0.02 {
		t.Errorf("assembly mismatch rate %.4f too high", with.MismatchRate)
	}
}

// TestScaffoldQuality checks the final scaffolds against the truth.
func TestScaffoldQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("quality evaluation is expensive")
	}
	p := smallPreset()
	com, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	genomes := make([][]byte, len(com.Genomes))
	for i := range com.Genomes {
		genomes[i] = com.Genomes[i].Seq
	}
	cfg := testPipelineConfig()
	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(res.Scaffolds))
	for i := range res.Scaffolds {
		seqs[i] = res.Scaffolds[i].Seq
	}
	rep, err := quality.Evaluate(seqs, genomes, quality.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scaffolds: %s", rep)
	if rep.GenomeFraction < 0.5 {
		t.Errorf("scaffolds cover only %.1f%% of the truth", 100*rep.GenomeFraction)
	}
	if rep.MismatchRate > 0.02 {
		t.Errorf("scaffold mismatch rate %.4f", rep.MismatchRate)
	}
	_ = synth.Flatten
}
