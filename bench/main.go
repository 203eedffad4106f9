// Command bench is the repository's benchmark: five workloads, every number
// labelled with its clock, per-layer measurements taken from outside the
// program. See README.md in this directory.
//
//	bench                                   all workloads, untraced then traced
//	bench -workload W -seed N -seconds S -trace 0|1   one run, as the driver calls it
//	bench -compare A.json B.json            apply the bounds to two result files
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

var runners = map[string]func(*run) error{
	wArctic: runArctic,
	wLADump: runLADump,
	wDist:   runDist8,
	wBudget: runBudget,
	wDaemon: runDaemon,
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", defaultSeed, "input seed; the default seed's inputs are pinned by inputs.golden")
		seconds  = flag.Float64("seconds", runSeconds, "how long each run measures")
		trace    = flag.Int("trace", 0, "1 = record spans and report the per-layer metrics")
		out      = flag.String("out", filepath.Join(outDir, "result.json"), "where the all-workloads run writes its result")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	// One load shape everywhere: at most four cores, recorded in the result.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *workload != "":
		var ok bool
		ok, err = runOne(*workload, *seed, *seconds, *trace != 0, procs)
		if err == nil && !ok {
			os.Exit(1)
		}
	default:
		var ok bool
		ok, err = runAll(*seed, *seconds, *out)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func resultPath(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, t))
}

// runOne executes one workload in this process, prints its metrics, leaves
// its result file (and trace) under bench/out, and ends standard output
// with the driver's one-line JSON. It reports whether every op and check
// passed.
func runOne(workload string, seed int64, seconds float64, trace bool, procs int) (bool, error) {
	runner := runners[workload]
	if runner == nil {
		return false, fmt.Errorf("unknown workload %q (have %v)", workload, workloadOrder)
	}
	r := &run{workload: workload, seed: seed, seconds: seconds, trace: trace, workers: procs, samples: map[string][]float64{}, stats: map[string]stat{}}
	if trace {
		r.rec = newRecorder()
	}
	if err := runner(r); err != nil {
		return false, fmt.Errorf("%s: %w", workload, err)
	}
	wr, err := r.finish()
	if err != nil {
		return false, fmt.Errorf("%s: %w", workload, err)
	}
	if err := writeJSON(resultPath(workload, trace), wr); err != nil {
		return false, err
	}
	if trace {
		if err := r.rec.writeChrome(filepath.Join(outDir, "trace-"+workload+".json"), workload); err != nil {
			return false, err
		}
	}
	fmt.Printf("seed %d, %g s, GOMAXPROCS %d of %d cores, %s, commit %s\n",
		seed, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	printWorkload(os.Stdout, wr)
	line, err := contractLine(wr, trace)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return wr.Failed == 0, nil
}

// runAll runs every workload twice, each run in a child process of its own
// so that CPU time and peak memory are per workload: first all of them
// untraced for the end-to-end metrics, then all of them traced for the
// per-layer ones.
func runAll(seed int64, seconds float64, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	res := newBenchResult(seed, seconds)
	ok := true
	parts := map[string]*[2]workloadResult{}
	for t := 0; t < 2; t++ {
		for _, w := range workloadOrder {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(t))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				if _, exited := err.(*exec.ExitError); !exited || cmd.ProcessState.ExitCode() != 1 {
					return false, fmt.Errorf("%s (trace %d): %w", w, t, err)
				}
				ok = false // exit code 1: measured, but an op or a check failed
			}
			if parts[w] == nil {
				parts[w] = new([2]workloadResult)
			}
			if err := readJSON(resultPath(w, t == 1), &parts[w][t]); err != nil {
				return false, err
			}
		}
	}
	for _, w := range workloadOrder {
		merged := mergeTraced(parts[w][0], parts[w][1])
		res.Workloads[w] = &merged
		printWorkload(os.Stdout, &merged)
	}
	if err := writeJSON(out, res); err != nil {
		return false, err
	}
	fmt.Printf("\nresult written to %s (commit %s, seed %d, GOMAXPROCS %d)\n", out, res.Commit, seed, res.GOMAXPROCS)
	return ok, nil
}

// mergeTraced combines a workload's untraced and traced runs. The per-layer
// metrics are the traced run's. The others are the untraced run's, but the
// traced run measures them too, on the untraced ops it alternates with its
// traced ones, some minutes later: q1 and q3 are stretched to span both
// runs' inter-quartile ranges, so that what the host does from one minute
// to the next counts as spread when -compare asks whether a difference can
// be told from noise.
func mergeTraced(untraced, traced workloadResult) workloadResult {
	merged := untraced
	for i := range catalog {
		d := &catalog[i]
		mv, tv := merged.Metrics[d.Name], traced.Metrics[d.Name]
		switch {
		case d.Tier == tierLayer:
			mv = tv
		case mv.N > 0 && tv.N > 0:
			mv.Q1, mv.Q3 = math.Min(mv.Q1, tv.Q1), math.Max(mv.Q3, tv.Q3)
		}
		merged.Metrics[d.Name] = mv
	}
	// An op that fails with tracing on has failed.
	merged.Broken = append(merged.Broken, traced.Broken...)
	merged.Attempted += traced.Attempted
	merged.Failed += traced.Failed
	ff := float64(merged.Failed) / float64(merged.Attempted)
	mv := merged.Metrics["failed_frac"]
	mv.Median, mv.Q1, mv.Q3 = ff, ff, ff
	merged.Metrics["failed_frac"] = mv
	return merged
}
