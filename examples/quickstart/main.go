// Quickstart: assemble a small synthetic metagenome end-to-end with the
// public pipeline API — generate a community, sample paired-end reads, run
// the MetaHipMer2-like pipeline with GPU-accelerated local assembly, and
// print the assembly plus the stage breakdown.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/synth"
)

func main() {
	// 1. A small community: four genomes with skewed abundances.
	com, err := synth.GenerateCommunity(synth.Config{
		NumGenomes:     4,
		MinGenomeLen:   8_000,
		MaxGenomeLen:   15_000,
		AbundanceSigma: 0.7,
		RepeatFrac:     0.02,
		SharedFrac:     0.02,
		RepeatLen:      300,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("community: %d genomes, %d bases\n", len(com.Genomes), com.TotalBases())

	// 2. Illumina-like paired-end reads at ~15x mean coverage.
	pairs, err := synth.SampleReads(com, synth.ReadConfig{
		ReadLen:     150,
		InsertMean:  350,
		InsertSD:    40,
		Depth:       15,
		ErrorRate:   0.004,
		LowQualFrac: 0.05,
	}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reads: %d pairs\n", len(pairs))

	// 3. Assemble: two contigging rounds, GPU local assembly on the
	// simulated V100 (engine selection via the EngineSpec).
	cfg := pipeline.DefaultConfig()
	cfg.Rounds = []int{21, 33}
	cfg.Engine.Name = locassm.EngineGPU
	res, err := pipeline.Run(pairs, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Results.
	longest, total := 0, 0
	for _, c := range res.Contigs {
		total += len(c.Seq)
		if len(c.Seq) > longest {
			longest = len(c.Seq)
		}
	}
	fmt.Printf("\nassembly: %d contigs (%d bases, longest %d), %d scaffolds\n",
		len(res.Contigs), total, longest, len(res.Scaffolds))

	fmt.Println("\nstage breakdown:")
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		fmt.Printf("  %-18s %v\n", s, res.Timings.Wall[s].Round(1e6))
	}
	fmt.Printf("\nGPU local assembly: %d kernel launches, model time %v\n",
		len(res.Work.GPUKernels), res.Work.GPUKernelTime.Round(1e3))
}
