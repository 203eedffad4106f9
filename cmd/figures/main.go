// Command figures regenerates every table and figure of the paper's
// evaluation section (DESIGN.md §4 maps each to its implementation):
//
//	Fig 2   64-node WA stage breakdown, CPU vs GPU local assembly
//	Fig 3   contig distribution across the §3.1 bins per k
//	Fig 8/9 instruction rooflines of the v1 and v2 kernels
//	Fig 10  grouped warp-instruction breakdown, v1 vs v2
//	Fig 12  2-node arcticsynth breakdown
//	Fig 13  local-assembly strong scaling on Summit
//	Fig 14  whole-pipeline strong scaling on Summit
//
// Usage:
//
//	figures [-fig all|2|3|8|9|10|12|13|14] [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mhm2sim/internal/figures"
	"mhm2sim/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	figFlag := flag.String("fig", "all", "which figure to regenerate")
	quick := flag.Bool("quick", false, "use reduced presets (faster, same structure)")
	flag.Parse()

	want := map[string]bool{}
	for _, f := range strings.Split(*figFlag, ",") {
		want[strings.TrimSpace(f)] = true
	}
	has := func(ids ...string) bool {
		if want["all"] {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}

	get := func(name string) figures.Setup {
		s, err := figures.StandardSetup(name)
		if *quick {
			s, err = figures.QuickSetup(name)
		}
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// Figure 3 and the roofline figures use the arcticsynth dataset; the
	// cluster figures use the WA dataset. Pipeline runs are shared.
	var arcticRes *pipeline.Result
	var arctic figures.Setup
	needArctic := has("3", "8", "9", "10", "12")
	if needArctic {
		arctic = get("arcticsynth")
		if !*quick {
			// Fig 3 sweeps the full k ladder.
			arctic.Config.Rounds = []int{21, 33, 55, 77, 99}
		}
		fmt.Println("== running arcticsynth pipeline ==")
		var err error
		arcticRes, err = arctic.Run(false)
		if err != nil {
			log.Fatal(err)
		}
	}

	if has("3") {
		fmt.Println(figures.Fig3(arcticRes.Bins))
	}

	if has("8", "9", "10") {
		m, _, err := figures.Model(arcticRes, arctic.Config.Engine.Config)
		if err != nil {
			log.Fatal(err)
		}
		f2, err := m.FitRatio(4.3)
		if err != nil {
			log.Fatal(err)
		}
		rf, err := figures.RunRoofline(arcticRes.LAWorkload, arctic.Config.Engine.Config, 2*f2)
		if err != nil {
			log.Fatal(err)
		}
		if has("8", "9") {
			fmt.Println(figures.Fig8Fig9(rf))
		}
		if has("10") {
			fmt.Println(figures.Fig10(rf))
		}
	}

	if has("2", "12", "13", "14") {
		wa := get("WA")
		fmt.Println("== running WA pipeline ==")
		waRes, err := wa.Run(false)
		if err != nil {
			log.Fatal(err)
		}
		m, f64, err := figures.Model(waRes, wa.Config.Engine.Config)
		if err != nil {
			log.Fatal(err)
		}
		if has("2") {
			fmt.Println(figures.Fig2(m, f64))
		}
		if has("12") {
			timings := waRes.Timings
			if arcticRes != nil {
				timings = arcticRes.Timings
			}
			out, err := figures.Fig12(m, timings)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
		if has("13") {
			fmt.Println(figures.Fig13(m, f64))
		}
		if has("14") {
			fmt.Println(figures.Fig14(m, f64))
		}
	}
}
