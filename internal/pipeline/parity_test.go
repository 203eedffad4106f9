// Engine-parity tests live in an external test package so they can pull in
// internal/dist (which imports pipeline) without a cycle: the same reads go
// through every registered execution substrate and must come out
// bit-identical — the invariant the engine registry is built on.
package pipeline_test

import (
	"bytes"
	"reflect"
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/synth"
)

// parityPreset mirrors the in-package tests' reduced arcticsynth community.
func parityPreset() synth.Preset {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 3
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 6_000, 9_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 14
	p.Reads.ErrorRate = 0.002
	return p
}

func parityPairs(t testing.TB) []dna.PairedRead {
	t.Helper()
	_, pairs, err := parityPreset().Build()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func parityConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Rounds = []int{21, 33}
	return cfg
}

// assertSameAssembly fails unless got reproduces want contig-for-contig and
// scaffold-for-scaffold.
func assertSameAssembly(t *testing.T, engine string, want, got *pipeline.Result) {
	t.Helper()
	if len(got.Contigs) != len(want.Contigs) {
		t.Fatalf("%s: %d contigs, want %d", engine, len(got.Contigs), len(want.Contigs))
	}
	for i := range want.Contigs {
		if !bytes.Equal(got.Contigs[i].Seq, want.Contigs[i].Seq) {
			t.Fatalf("%s: contig %d differs", engine, i)
		}
	}
	if !reflect.DeepEqual(got.Scaffolds, want.Scaffolds) {
		t.Fatalf("%s: scaffolds differ", engine)
	}
}

// TestEngineParity: every registered single-process engine produces a
// bit-identical assembly for the same reads. This is the acceptance
// invariant of the engine registry — an engine that drifts by one base is a
// bug, not a variant.
func TestEngineParity(t *testing.T) {
	pairs := parityPairs(t)

	ref, err := pipeline.Run(pairs, parityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Contigs) == 0 || len(ref.Scaffolds) == 0 {
		t.Fatal("reference cpu run produced no assembly")
	}

	for _, name := range []string{locassm.EngineGPU, locassm.EngineMultiGPU} {
		cfg := parityConfig()
		cfg.Engine.Name = name
		if name == locassm.EngineMultiGPU {
			cfg.Engine.GPUs = 3
		}
		res, err := pipeline.Run(pairs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameAssembly(t, name, ref, res)
		if len(res.Work.GPUKernels) == 0 {
			t.Errorf("%s: no kernel launches recorded", name)
		}
	}
}

// TestEngineParityDist: the distributed runtime — the engine that can only
// be reached through dist.Run — agrees with the single-rank reference too.
func TestEngineParityDist(t *testing.T) {
	pairs := parityPairs(t)

	ref, err := pipeline.Run(pairs, parityConfig())
	if err != nil {
		t.Fatal(err)
	}

	dcfg := dist.DefaultConfig(3)
	dcfg.Pipeline.Rounds = []int{21, 33}
	res, _, err := dist.Run(pairs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssembly(t, locassm.EngineDist, ref, res)
}
