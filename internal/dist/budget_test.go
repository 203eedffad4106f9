package dist

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/locassm"
)

// heavyShard is 100 contigs, each with 161 60-bp reads over its right end —
// enough candidate reads that the driver's memory budget decides how the
// shard splits into batches.
func heavyShard() []*locassm.CtgWithReads {
	rng := rand.New(rand.NewSource(30))
	ctgs := make([]*locassm.CtgWithReads, 100)
	for i := range ctgs {
		genome := make([]byte, 400)
		for j := range genome {
			genome[j] = "ACGT"[rng.Intn(4)]
		}
		c := &locassm.CtgWithReads{ID: int64(i), Seq: genome[:200], Depth: 20}
		for r := 0; r < 161; r++ {
			at := 140 + rng.Intn(len(genome)-60-140)
			c.RightReads = append(c.RightReads, dna.Read{
				Seq: genome[at : at+60], Qual: bytes.Repeat([]byte{'I'}, 60),
			})
		}
		ctgs[i] = c
	}
	return ctgs
}

// TestRankEnginesHonourBudget: under a run-level memory budget a device
// rank's engine packs a shard into the same batches as the pipeline's own gpu
// engine, both built from the one resolved spec — the rank does not fall back
// to the driver's whole-device default.
func TestRankEnginesHonourBudget(t *testing.T) {
	t.Parallel()
	shard := heavyShard()
	cfg := DefaultConfig(2)
	cfg.Pipeline.MemBudget = gpucount.MinMemBudget

	spec := cfg.Pipeline.EngineSpec()
	spec.Name = locassm.EngineGPU
	defer spec.ResolveDevices()()
	eng, err := locassm.NewEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, want, err := eng.Assemble(21, shard)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := newRuntime(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, got, err := rt.ranks[0].gpu.Assemble(21, shard)
	if err != nil {
		t.Fatal(err)
	}
	if want.Batches < 2 {
		t.Fatalf("the budget packs the shard into %d batch; the test needs a binding budget", want.Batches)
	}
	t.Logf("%d contigs under a %d-byte run budget: %d batches", len(shard), cfg.Pipeline.MemBudget, want.Batches)
	if got.Batches != want.Batches || len(got.Kernels) != len(want.Kernels) || got.KernelTime != want.KernelTime {
		t.Errorf("rank engine: %d batches, %d launches, %v kernel time; pipeline gpu engine: %d, %d, %v",
			got.Batches, len(got.Kernels), got.KernelTime, want.Batches, len(want.Kernels), want.KernelTime)
	}
}
