// Engine parity lives in an external test package so it can pull in
// internal/dist (which imports pipeline) without a cycle: the same reads go
// through every registered execution substrate and must come out
// bit-identical — the invariant the engine registry is built on.
package pipeline_test

import (
	"bytes"
	"reflect"
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
)

// TestEngineParity: every engine, the distributed runtime included,
// reproduces the cpu engine's assembly contig for contig and scaffold for
// scaffold. An engine that drifts by one base is a bug, not a variant.
func TestEngineParity(t *testing.T) {
	pairs, ref := pipeline.BuildPairs(t), pipeline.Reference(t)
	if len(ref.Contigs) == 0 || len(ref.Scaffolds) == 0 {
		t.Fatal("reference cpu run produced no assembly")
	}
	for _, engine := range []string{locassm.EngineGPU, locassm.EngineMultiGPU, locassm.EngineDist} {
		t.Run(engine, func(t *testing.T) {
			cfg := pipeline.TestConfig()
			var res *pipeline.Result
			var err error
			switch engine {
			case locassm.EngineDist:
				dcfg := dist.DefaultConfig(3)
				dcfg.Pipeline = cfg
				res, _, err = dist.Run(pairs, dcfg)
			case locassm.EngineMultiGPU:
				cfg.Engine.GPUs = 3
				fallthrough
			default:
				cfg.Engine.Name = engine
				res, err = pipeline.Run(pairs, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Contigs) != len(ref.Contigs) {
				t.Fatalf("%d contigs, want %d", len(res.Contigs), len(ref.Contigs))
			}
			for i := range ref.Contigs {
				if !bytes.Equal(res.Contigs[i].Seq, ref.Contigs[i].Seq) {
					t.Fatalf("contig %d differs", i)
				}
			}
			if !reflect.DeepEqual(res.Scaffolds, ref.Scaffolds) {
				t.Fatal("scaffolds differ")
			}
			if len(res.Work.GPUKernels) == 0 || res.Work.GPUKernelTime <= 0 {
				t.Errorf("no kernel launches recorded: %d in %v", len(res.Work.GPUKernels), res.Work.GPUKernelTime)
			}
		})
	}
}
