package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// outDir holds what a run leaves behind: per-workload result files, the
// merged result, Chrome traces, and the daemon's scratch data.
const outDir = "bench/out"

const resultSchema = "mhm2sim-bench/v1"

// metricValue is one reported number. It says which clock it is on, which
// direction is better, and how many samples stand behind the median.
type metricValue struct {
	Unit   string `json:"unit"`
	Clock  clock  `json:"clock"`
	Better string `json:"better"`
	stat
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Pairs     int      `json:"input_pairs"`
	Bases     int64    `json:"input_bases"`
	SHA256    string   `json:"input_sha256"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Broken    []string `json:"failed_checks,omitempty"`
	// Metrics holds every catalog metric; one the workload does not
	// measure has n = 0 and reads 0.
	Metrics map[string]metricValue `json:"metrics"`
}

// benchResult is the file `bench` writes and `bench -compare` reads.
type benchResult struct {
	Schema     string                     `json:"schema"`
	Commit     string                     `json:"commit"`
	Go         string                     `json:"go"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func newBenchResult(seed int64, seconds float64) *benchResult {
	return &benchResult{
		Schema: resultSchema, Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{},
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a driver checkout is not a repository).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// finish turns the run's samples into a workloadResult. Every metric the
// catalog places on this workload must have been measured in this mode: a
// missing one is a bug in the benchmark, reported as an error rather than
// as a silent zero.
func (r *run) finish() (*workloadResult, error) {
	if len(r.samples["peak_rss_mb"]) == 0 {
		r.set("peak_rss_mb", peakRSSMB())
	}
	// A failed check that is not one op's (engine parity, quality floor)
	// counts as one more failed attempt.
	attempted, failed := r.attempted+len(r.broken), r.failed+len(r.broken)
	if attempted == 0 {
		return nil, fmt.Errorf("no op was attempted")
	}
	r.set("failed_frac", float64(failed)/float64(attempted))
	wr := &workloadResult{
		Workload: r.workload, Pairs: r.pairs, Bases: r.bases, SHA256: r.sha,
		Attempted: attempted, Failed: failed, Broken: r.broken,
		Metrics: map[string]metricValue{},
	}
	for i := range catalog {
		d := &catalog[i]
		mv := metricValue{Unit: d.Unit, Clock: d.Clock, Better: d.Better}
		xs := r.samples[d.Name]
		switch {
		case r.stats[d.Name].N > 0:
			mv.stat = r.stats[d.Name]
		case len(xs) > 0:
			mv.stat = summarize(xs)
		case d.on(r.workload) && (r.trace || d.Tier != tierLayer) && failed == 0:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		wr.Metrics[d.Name] = mv
	}
	return wr, nil
}

// contractLine is the one-line JSON the driver reads from the last line of
// standard output: the end_to_end metrics with tracing off, the per_layer
// metrics with tracing on.
func contractLine(wr *workloadResult, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for i := range catalog {
		d := &catalog[i]
		if (d.Tier == tierEndToEnd) == !trace {
			metrics[d.Name] = value{Value: wr.Metrics[d.Name].Median, Unit: d.Unit}
		}
	}
	return json.Marshal(map[string]any{
		"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
}

// printWorkload prints every measured metric by name with its unit and
// its clock.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed; input %d pairs/reads, %d bases, sha256 %.12s\n",
		wr.Workload, wr.Attempted, wr.Failed, wr.Pairs, wr.Bases, wr.SHA256)
	fmt.Fprintf(w, "%-42s %14s %-9s %-20s %14s %14s %5s\n", "metric", "median", "unit", "clock", "q1", "q3", "n")
	for i := range catalog {
		d := &catalog[i]
		mv := wr.Metrics[d.Name]
		if mv.N == 0 {
			continue
		}
		fmt.Fprintf(w, "%-42s %14.6g %-9s %-20s %14.6g %14.6g %5d\n", d.Name, mv.Median, mv.Unit, mv.Clock, mv.Q1, mv.Q3, mv.N)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
