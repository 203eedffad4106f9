// Command figures regenerates every table and figure of the paper's
// evaluation section (DESIGN.md §4 maps each to its implementation) and
// scores the paper's claims against them:
//
//	Fig 2   64-node WA stage breakdown, CPU vs GPU local assembly
//	Fig 3   contig distribution across the §3.1 bins per k
//	Fig 8/9 instruction rooflines of the v1 and v2 kernels
//	Fig 10  grouped warp-instruction breakdown, v1 vs v2
//	Fig 12  2-node arcticsynth breakdown
//	Fig 13  local-assembly strong scaling on Summit
//	Fig 14  whole-pipeline strong scaling on Summit
//	check   the scorecard: one row per claim of the paper — paper value,
//	        measured value, workload, clock, accepted range, verdict. Exits
//	        1 naming each failed prediction. EXPERIMENTS.md carries this
//	        output verbatim and CI diffs the two.
//
// Usage:
//
//	figures [-fig all|2|3|8|9|10|12|13|14|check] [-quick]
//
// Figures and the scorecard go to standard output, progress to standard
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"mhm2sim/internal/figures"
	"mhm2sim/internal/pipeline"
)

// figIDs are the values -fig takes, comma-separated. "all" is every figure;
// the scorecard is asked for by name.
var figIDs = []string{"all", "2", "3", "8", "9", "10", "12", "13", "14", "check"}

type options struct {
	figs  map[string]bool
	quick bool
}

// has reports whether any of ids was asked for.
func (o *options) has(ids ...string) bool {
	for _, id := range ids {
		if o.figs[id] || o.figs["all"] && id != "check" {
			return true
		}
	}
	return false
}

// parseFlags parses args (not including the program name) into options.
// It is split from main so tests can drive it; errors are reported on
// stderr and returned, not fatal.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{figs: map[string]bool{}}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figFlag := fs.String("fig", "all", "what to regenerate, comma-separated: "+strings.Join(figIDs, ", "))
	fs.BoolVar(&o.quick, "quick", false, "use reduced presets (faster, same structure)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fail := func(format string, a ...any) (*options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return nil, err
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	for _, f := range strings.Split(*figFlag, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figIDs, f) {
			return fail("unknown -fig %q (valid: %s)", f, strings.Join(figIDs, ", "))
		}
		o.figs[f] = true
	}
	if o.figs["check"] && o.quick {
		return fail("-fig check scores the standard setups; its ranges say nothing about -quick")
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	run := func(name string) (figures.Setup, *pipeline.Result) {
		s, err := figures.StandardSetup(name)
		if o.quick {
			s, err = figures.QuickSetup(name)
		}
		must(err)
		if name == "arcticsynth" && !o.quick {
			// Fig 3 sweeps the full k ladder.
			s.Config.Rounds = []int{21, 33, 55, 77, 99}
		}
		log.Printf("running the %s pipeline", name)
		res, err := s.Run()
		must(err)
		return s, res
	}

	// Fig 3, the roofline figures and Fig 12's host-wall shares use the
	// arcticsynth dataset; the cluster figures use the WA dataset. Pipeline
	// runs are shared.
	var got figures.Measured
	sweep := o.has("8", "9", "10", "check")
	if sweep || o.has("3", "12") {
		var arctic figures.Setup
		arctic, got.Arctic = run("arcticsynth")
		if o.has("3") {
			fmt.Println(figures.Fig3(got.Arctic.Bins))
		}
		if sweep {
			// The paper's standalone runs put the whole arcticsynth dump on
			// one V100: two nodes' shares, each the f2 copies of this dump at
			// which the calibrated model gives Fig 12's 4.3×.
			cfg := arctic.Config.Engine.Config
			m, _, err := figures.Model(got.Arctic, cfg)
			must(err)
			f2, err := m.FitRatio(4.3)
			must(err)
			got.Scale = 2 * f2
			got.Roofline, err = figures.RunRoofline(got.Arctic.LAWorkload, cfg, got.Scale)
			must(err)
		}
		if o.has("8", "9") {
			fmt.Println(figures.Fig8Fig9(got.Roofline))
		}
		if o.has("10") {
			fmt.Println(figures.Fig10(got.Roofline))
		}
	}

	if o.has("2", "12", "13", "14", "check") {
		var wa figures.Setup
		wa, got.WA = run("WA")
		got.Model, got.F64, err = figures.Model(got.WA, wa.Config.Engine.Config)
		must(err)
		if o.has("2") {
			fmt.Println(figures.Fig2(got.Model, got.F64))
		}
		if o.has("12") {
			out, err := figures.Fig12(got.Model, got.Arctic.Timings)
			must(err)
			fmt.Println(out)
		}
		if o.has("13") {
			fmt.Println(figures.Fig13(got.Model, got.F64))
		}
		if o.has("14") {
			fmt.Println(figures.Fig14(got.Model, got.F64))
		}
	}

	if o.has("check") {
		rows, err := figures.Scorecard(got)
		must(err)
		out, failed := figures.RenderScorecard(rows)
		fmt.Print(out)
		for _, r := range failed {
			verdict, _ := r.Verdict()
			log.Printf("%s, %s: %.4g%s against [%.4g, %.4g] — %s", r.Fig, r.Claim, r.Measured, r.Unit, r.Lo, r.Hi, verdict)
		}
		if len(failed) > 0 {
			os.Exit(1)
		}
	}
}
