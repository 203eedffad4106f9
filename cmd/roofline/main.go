// Command roofline reproduces the paper's instruction-roofline analysis of
// the extension kernels (Figs 8-10): it builds the standalone arcticsynth
// local-assembly workload, runs the v1 (thread-per-table) and v2
// (warp-per-table) kernels on the simulated V100, and prints the roofline
// characterization and the grouped instruction breakdown.
//
// Usage:
//
//	roofline [-preset arcticsynth] [-quick] [-scale N]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mhm2sim/internal/figures"
	"mhm2sim/internal/simt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roofline: ")

	presetName := flag.String("preset", "arcticsynth", "dataset preset")
	quick := flag.Bool("quick", false, "use the reduced preset")
	scale := flag.Float64("scale", 0, "workload replication on the device (0 = calibrated full-dataset factor)")
	device := flag.String("device", "v100", "device model: v100 (the paper's) or a100 (what-if)")
	flag.Parse()

	var devCfg simt.DeviceConfig
	switch strings.ToLower(*device) {
	case "v100":
		devCfg = simt.V100()
	case "a100":
		devCfg = simt.A100()
	default:
		log.Fatalf("unknown device %q (v100 or a100)", *device)
	}

	setup, err := figures.StandardSetup(*presetName)
	if *quick {
		setup, err = figures.QuickSetup(*presetName)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building workload (running upstream pipeline)...")
	res, err := setup.Run(false)
	if err != nil {
		log.Fatal(err)
	}

	sc := *scale
	if sc == 0 {
		// The paper's standalone runs put the whole arcticsynth dump on
		// one V100; our calibrated 2-node share ×2 nodes approximates it.
		m, _, err := figures.Model(res, setup.Config.Engine.Config)
		if err != nil {
			log.Fatal(err)
		}
		f2, err := m.FitRatio(4.3)
		if err != nil {
			log.Fatal(err)
		}
		sc = 2 * f2
	}
	fmt.Printf("analyzing kernels on %s at device scale factor %.1f\n\n", devCfg.Name, sc)

	rf, err := figures.RunRooflineOn(devCfg, res.LAWorkload, setup.Config.Engine.Config, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(figures.Fig8Fig9(rf))
	fmt.Println(figures.Fig10(rf))
}
