// Scaling example: reproduce the paper's Summit strong-scaling results
// (Figs 13 and 14) from first principles — run the pipeline on a scaled WA
// community, measure the local-assembly module under both implementations,
// calibrate the cluster model to the two published endpoints, and print
// the full node sweep with the intermediate points as model predictions.
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"mhm2sim/internal/figures"
)

func main() {
	setup, err := figures.QuickSetup("WA")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running the pipeline on the scaled WA community...")
	res, err := setup.Run(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local-assembly workload: %d contigs\n\n", len(res.LAWorkload))

	// Measure CPU + GPU local assembly on the workload and calibrate the
	// Summit model against the published 64-node (7.2x) and 1024-node
	// (2.65x) speedups; everything in between is a prediction.
	m, f64, err := figures.Model(res, setup.Config.Engine.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated: one 64-node share = %.1f base workloads; CPU cost model %+v\n\n",
		f64, m.CPUCost)

	fmt.Println(figures.Fig13(m, f64))
	fmt.Println(figures.Fig14(m, f64))
}
