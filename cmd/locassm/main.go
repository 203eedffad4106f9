// Command locassm runs the local-assembly module standalone, the way the
// paper evaluated its kernels on Cori (§4.1): it builds a workload (contigs
// plus candidate reads) by running the upstream pipeline on a synthetic
// preset, then executes local assembly with the CPU reference and both GPU
// kernel versions, verifying bit-identical extensions and reporting the
// modeled times.
//
// Usage:
//
//	locassm -preset arcticsynth [-quick]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	"mhm2sim/internal/figures"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/simt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locassm: ")

	presetName := flag.String("preset", "arcticsynth", "dataset preset")
	quick := flag.Bool("quick", false, "use the reduced preset")
	loadPath := flag.String("load", "", "load a workload dump (mhm2sim -dump-la) instead of running the pipeline")
	flag.Parse()

	setup, err := figures.StandardSetup(*presetName)
	if *quick {
		setup, err = figures.QuickSetup(*presetName)
	}
	if err != nil {
		log.Fatal(err)
	}

	var work []*locassm.CtgWithReads
	if *loadPath != "" {
		work, err = locassm.LoadWorkloadFile(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded workload dump %s\n", *loadPath)
	} else {
		fmt.Println("building workload (running upstream pipeline)...")
		res, err := setup.Run(false)
		if err != nil {
			log.Fatal(err)
		}
		work = res.LAWorkload
	}
	nReads := 0
	for _, c := range work {
		nReads += c.NumReads()
	}
	bins := locassm.MakeBins(work, 0)
	z, s, l := bins.Fractions()
	fmt.Printf("workload: %d contigs, %d candidate reads; bins %.1f%%/%.1f%%/%.1f%%\n",
		len(work), nReads, 100*z, 100*s, 100*l)

	cfg := setup.Config.Engine.Config
	cpu, err := locassm.RunCPU(work, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCPU reference: %d table builds, %d k-mers inserted, %d lookups, %d walk steps\n",
		cpu.Counts.TableBuilds, cpu.Counts.KmersInserted, cpu.Counts.Lookups, cpu.Counts.WalkSteps)

	for _, v2 := range []bool{false, true} {
		name := "GPU v1 (thread per table)"
		if v2 {
			name = "GPU v2 (warp per table)"
		}
		dev := simt.NewDevice(simt.V100())
		drv, err := locassm.NewDriver(dev, locassm.GPUConfig{Config: cfg, WarpPerTable: v2})
		if err != nil {
			log.Fatal(err)
		}
		gres, err := drv.Run(work)
		if err != nil {
			log.Fatal(err)
		}
		mismatches := 0
		for i := range work {
			if !bytes.Equal(cpu.Results[i].LeftExt, gres.Results[i].LeftExt) ||
				!bytes.Equal(cpu.Results[i].RightExt, gres.Results[i].RightExt) {
				mismatches++
			}
		}
		var instrs uint64
		for _, k := range gres.Kernels {
			instrs += k.TotalWarpInstrs()
		}
		fmt.Printf("\n%s:\n", name)
		fmt.Printf("  model kernel time %v + transfers %v (%d launches, %d batches)\n",
			gres.KernelTime.Round(1e3), gres.TransferTime.Round(1e3), len(gres.Kernels), gres.Batches)
		fmt.Printf("  warp instructions %d; extensions identical to CPU: %v (%d mismatches)\n",
			instrs, mismatches == 0, mismatches)
		if mismatches > 0 {
			log.Fatal("GPU results diverge from the CPU reference")
		}
	}

	var grown, added int
	for _, r := range cpu.Results {
		if n := len(r.LeftExt) + len(r.RightExt); n > 0 {
			grown++
			added += n
		}
	}
	fmt.Printf("\nextensions: %d of %d contigs grew, %d bases added\n", grown, len(work), added)
}
