// Command locassm runs the local-assembly module standalone, the way the
// paper evaluated its kernels on Cori (§4.1): it builds a workload (contigs
// plus candidate reads) by running the upstream pipeline on a synthetic
// preset, then executes local assembly with the CPU reference and both GPU
// kernel versions, verifying bit-identical extensions and reporting the
// modeled times and the instruction-roofline characterization (the tables
// of Figs 8–10) of the kernels it just ran, on that workload as it is.
//
// Usage:
//
//	locassm [-preset arcticsynth] [-quick] [-load dump]
package main

import (
	"flag"
	"fmt"
	"log"

	"mhm2sim/internal/figures"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/roofline"
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
	var source string
	if *loadPath != "" {
		work, err = locassm.LoadWorkloadFile(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded workload dump %s\n", *loadPath)
		source = "dump " + *loadPath
	} else {
		fmt.Println("building workload (running upstream pipeline)...")
		res, err := setup.Run()
		if err != nil {
			log.Fatal(err)
		}
		work = res.LAWorkload
		source = fmt.Sprintf("%s k=%d dump", setup.Preset.Name, res.Bins[len(res.Bins)-1].K)
	}
	nReads := 0
	for _, c := range work {
		nReads += c.NumReads()
	}
	bins := locassm.MakeBins(work, 0)
	z, s, l := bins.Fractions()
	fmt.Printf("workload: %d contigs, %d candidate reads; bins %.1f%%/%.1f%%/%.1f%%\n",
		len(work), nReads, 100*z, 100*s, 100*l)

	rf, err := figures.RunRoofline(work, setup.Config.Engine.Config, 1)
	if err != nil {
		log.Fatal(err)
	}
	cpu := rf.CPU
	fmt.Printf("\nCPU reference: %d table builds, %d k-mers inserted, %d lookups, %d walk steps\n",
		cpu.Counts.TableBuilds, cpu.Counts.KmersInserted, cpu.Counts.Lookups, cpu.Counts.WalkSteps)
	for i, name := range []string{"GPU v1 (thread per table)", "GPU v2 (warp per table)"} {
		gres := rf.Runs[i]
		var instrs uint64
		for _, k := range gres.Kernels {
			instrs += k.TotalWarpInstrs()
		}
		fmt.Printf("\n%s:\n", name)
		fmt.Printf("  model kernel time %v + transfers %v (%d launches, %d batches)\n",
			gres.KernelTime.Round(1e3), gres.TransferTime.Round(1e3), len(gres.Kernels), gres.Batches)
		fmt.Printf("  warp instructions %d\n", instrs)
	}
	fmt.Printf("\nextensions identical to CPU: %v (%d mismatches over both versions)\n", rf.Mismatches == 0, rf.Mismatches)
	if rf.Mismatches > 0 {
		log.Fatal("GPU results diverge from the CPU reference")
	}
	analyses := []roofline.Analysis{rf.V1, rf.V2}

	fmt.Printf("\ninstruction roofline of these runs (%s, %d contigs, as it is: scale 1, one V100; model):\n", source, len(work))
	fmt.Print(roofline.Table(analyses))
	fmt.Println()
	fmt.Print(roofline.BreakdownTable(analyses))

	var grown, added int
	for _, r := range cpu.Results {
		if n := len(r.LeftExt) + len(r.RightExt); n > 0 {
			grown++
			added += n
		}
	}
	fmt.Printf("\nextensions: %d of %d contigs grew, %d bases added\n", grown, len(work), added)
}
