package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// go test ./bench -update rewrites ../BENCHMARK.json from the catalog and
// inputs.golden from the generators (the second runs la_dump's capture and
// takes some seconds).
var update = flag.Bool("update", false, "rewrite BENCHMARK.json and inputs.golden")

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95},
		{199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {3, 0.5},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeAndQuantileEstimate(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("odd sample: %+v", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("even sample: %+v", s)
	}
	if s = summarize([]float64{7}); s.N != 1 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("single sample: %+v", s)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	// Nearest rank, and around it the ranks np ± 0.674·√(np(1−p)) rounded
	// outwards: 90 ± 2.02 and 50 ± 3.37.
	if got := quantileEstimate(xs, 0.90); got != (stat{N: 100, Median: 90, Q1: 87, Q3: 93}) {
		t.Errorf("p90 of 1..100 = %+v, want 90 (ten samples beyond it) within 87..93", got)
	}
	if got := quantileEstimate(xs, 0.5); got != (stat{N: 100, Median: 50, Q1: 46, Q3: 54}) {
		t.Errorf("p50 of 1..100 = %+v, want 50 within 46..54", got)
	}
	if got := quantileEstimate([]float64{3, 1, 2}, 0.9); got != (stat{N: 3, Median: 3, Q1: 2, Q3: 3}) {
		t.Errorf("p90 of three samples = %+v: the interval must stay inside the sample", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1, Op: "a"},
		// Two children that overlap each other (30–50) and one that sticks
		// out past the parent's end: the union covers 10–60 and 90–100.
		{Name: "child", Start: ms(10), End: ms(50), Parent: 0, Op: "a"},
		{Name: "child", Start: ms(30), End: ms(60), Parent: 0, Op: "a"},
		{Name: "late", Start: ms(90), End: ms(120), Parent: 0, Op: "a"},
		// A grandchild takes time out of its parent only.
		{Name: "leaf", Start: ms(15), End: ms(25), Parent: 1, Op: "a"},
		// Another op's spans and an unfinished span are ignored.
		{Name: "root", Start: ms(0), End: ms(999), Parent: -1, Op: "b"},
		{Name: "open", Start: ms(5), End: -1, Parent: 0, Op: "a"},
	}
	got := selfTimes(spans, "a")
	want := map[string]time.Duration{"root": ms(40), "child": ms(30 + 30), "late": ms(30), "leaf": ms(10)}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want exactly %v", got, want)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", "op", -1, 0)
	r.end(id)
	ran := false
	if _, err := r.do("y", "op", id, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("do on a nil recorder: ran=%v err=%v", ran, err)
	}
}

func mv(median, q1, q3 float64, n int) metricValue {
	return metricValue{stat: stat{N: n, Median: median, Q1: q1, Q3: q3}}
}

func TestJudge(t *testing.T) {
	wall := lookupMetric("wall_s")           // lower is better, bound 0.10
	setup := lookupMetric("setup_s")         // lower is better, bound 0.25
	rate := lookupMetric("mbases_per_s")     // higher is better, bound 0.10
	model := lookupMetric("model_device_s")  // exact
	layer := lookupMetric("dbg.count_k21_s") // per-layer timing: no verdict
	count := lookupMetric("simt.warp_instrs")
	probe := lookupMetric(hostProbe)
	alloc := lookupMetric("alloc_mb") // a count: the host's speed does not move it
	for _, c := range []struct {
		name     string
		d        *metricDef
		a, b     metricValue
		sameSeed bool
		want     verdict
	}{
		{"inside the bound", wall, mv(1, 0.99, 1.01, 8), mv(1.09, 1.0, 1.2, 8), true, vOK},
		{"worse by more than the bound", wall, mv(1, 0.99, 1.01, 8), mv(1.11, 1.0, 1.2, 8), true, vRegression},
		{"a looser bound", setup, mv(1, 1, 1, 8), mv(1.24, 1.24, 1.24, 8), true, vOK},
		{"better by more than the bound", wall, mv(1, 0.99, 1.01, 8), mv(0.7, 0.7, 0.7, 8), true, vImproved},
		{"A's own spread exceeds the bound", wall, mv(1, 0.95, 1.06, 8), mv(1.5, 1.5, 1.5, 8), true, vUnresolved},
		{"higher-is-better falls", rate, mv(10, 9.9, 10.1, 8), mv(8.9, 8.9, 8.9, 8), true, vRegression},
		{"higher-is-better rises", rate, mv(10, 9.9, 10.1, 8), mv(11.1, 11.1, 11.1, 8), true, vImproved},
		{"exact and equal", model, mv(0.00122759, 0, 0, 1), mv(0.00122759, 0, 0, 1), true, vOK},
		{"exact and off by one ulp-ish", model, mv(0.00122759, 0, 0, 1), mv(0.00122760, 0, 0, 1), true, vMismatch},
		{"exact across seeds", model, mv(1, 1, 1, 1), mv(2, 2, 2, 1), false, vInfo},
		{"layer count moved", count, mv(1e7, 1e7, 1e7, 1), mv(1e7+1, 1e7+1, 1e7+1, 1), true, vMismatch},
		{"layer timing", layer, mv(1, 1, 1, 1), mv(5, 5, 5, 1), true, vInfo},
		{"the control itself", probe, mv(10, 10, 10, 9), mv(20, 20, 20, 9), true, vInfo},
		{"a single timing", setup, mv(5, 5, 5, 1), mv(7, 7, 7, 1), true, vUnresolved},
		{"missing on one side", wall, mv(1, 1, 1, 3), metricValue{}, true, vMismatch},
		{"measured on neither side", wall, metricValue{}, metricValue{}, true, vInfo},
	} {
		if got := judge(c.d, c.a, c.b, c.sameSeed, 0); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The host control's movement between the two runs counts as spread on
	// a host clock: A's own 2% and the host's 7% stay inside the bound, 2% and
	// 9% do not, and then a host-time difference shows nothing.
	if got := judge(wall, mv(1, 0.99, 1.01, 8), mv(1.3, 1.3, 1.3, 8), true, 0.07); got != vRegression {
		t.Errorf("host moved by 7%%: verdict %q, want %q", got, vRegression)
	}
	if got := judge(wall, mv(1, 0.99, 1.01, 8), mv(1.3, 1.3, 1.3, 8), true, 0.09); got != vUnresolved {
		t.Errorf("host moved by 9%%: verdict %q, want %q", got, vUnresolved)
	}
	if got := judge(alloc, mv(100, 99, 101, 8), mv(130, 130, 130, 8), true, 0.5); got != vRegression {
		t.Errorf("a count is not excused by the host: verdict %q, want %q", got, vRegression)
	}
}

func TestMergeTraced(t *testing.T) {
	part := func(wall, layer metricValue, attempted, failed int) workloadResult {
		return workloadResult{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{
			"wall_s": wall, "dbg.count_k21_s": layer, "failed_frac": mv(float64(failed)/float64(attempted), 0, 0, 1),
		}}
	}
	got := mergeTraced(part(mv(1.0, 0.98, 1.02, 8), metricValue{}, 8, 0), part(mv(1.2, 1.15, 1.25, 4), mv(0.3, 0.3, 0.3, 1), 8, 2))
	// The median is the untraced run's; the quartiles span both runs, so the
	// fifth between them reads as spread.
	if w := got.Metrics["wall_s"]; w != mv(1.0, 0.98, 1.25, 8) {
		t.Errorf("wall_s merged to %+v", w.stat)
	}
	if l := got.Metrics["dbg.count_k21_s"]; l != mv(0.3, 0.3, 0.3, 1) {
		t.Errorf("a per-layer metric must be the traced run's, got %+v", l.stat)
	}
	if ff := got.Metrics["failed_frac"]; got.Attempted != 16 || got.Failed != 2 || ff.Median != 0.125 {
		t.Errorf("a failure in the traced run must count: %d of %d, failed_frac %v", got.Failed, got.Attempted, ff.Median)
	}
}

func TestCompareResultsFailsOnRisingFailedFrac(t *testing.T) {
	mk := func(failed float64) *benchResult {
		r := newBenchResult(1, 10)
		wr := &workloadResult{Workload: wArctic, Metrics: map[string]metricValue{}}
		for i := range catalog {
			wr.Metrics[catalog[i].Name] = metricValue{}
		}
		wr.Metrics["wall_s"] = mv(1, 1, 1, 5)
		wr.Metrics["failed_frac"] = mv(failed, failed, failed, 1)
		r.Workloads[wArctic] = wr
		return r
	}
	var out bytes.Buffer
	if compareResults(&out, mk(0), mk(0)) {
		t.Errorf("identical results regressed:\n%s", out.String())
	}
	if !compareResults(&out, mk(0), mk(0.1)) {
		t.Error("a rise in failed_frac did not count as a regression")
	}
	if compareResults(&out, mk(0.1), mk(0)) {
		t.Error("a fall in failed_frac counted as a regression")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogLint(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range catalog {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Clock == "" {
			t.Errorf("%s has no clock", d.Name)
		}
		switch d.Tier {
		case tierEndToEnd:
			if d.Bound <= 0 || d.Gate < d.Bound || d.Gate > 0.25 || d.On != nil {
				t.Errorf("%s: an end-to-end metric needs 0 < bound ≤ gate ≤ 0.25 and every workload", d.Name)
			}
		case tierScoped:
			if d.Exact != (d.Bound == 0) && d.Name != hostProbe {
				t.Errorf("%s: exact must mean bound 0", d.Name)
			}
		}
		for _, w := range d.On {
			if runners[w] == nil {
				t.Errorf("%s is placed on unknown workload %q", d.Name, w)
			}
		}
	}
	for _, w := range workloadOrder {
		if !nameRE.MatchString(w) || runners[w] == nil {
			t.Errorf("workload %q: bad name or no runner", w)
		}
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.ContainsAny(why, "\n<>&") {
			t.Errorf("workload %q: why must be one plain line of at most 200 characters, got %q", w, why)
		}
	}
	if len(runners) != len(workloadOrder) {
		t.Errorf("%d runners for %d workloads", len(runners), len(workloadOrder))
	}
}

// writeManifest prints BENCHMARK.json as the catalog defines it: the
// metrics every workload reports under end_to_end with their bounds, all
// the others under per_layer.
func writeManifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, name := range workloadOrder {
		m.Workloads = append(m.Workloads, workload{name, workloadWhy[name]})
	}
	for i := range catalog {
		d := &catalog[i]
		if d.Tier == tierEndToEnd {
			m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Gate})
		} else {
			m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// TestManifestMatchesCatalog ties BENCHMARK.json to the catalog in both
// directions: the file is exactly what the catalog defines, and a run's
// result line carries exactly the names the file lists for its mode.
func TestManifestMatchesCatalog(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from the catalog; regenerate it with go test ./bench -update")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(onDisk))
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, want 1..128", n)
	}

	wr := &workloadResult{Attempted: 1, Metrics: map[string]metricValue{}}
	for i := range catalog {
		wr.Metrics[catalog[i].Name] = mv(1, 1, 1, 1)
	}
	for _, c := range []struct {
		trace bool
		names []struct{ Name string }
	}{{false, m.EndToEnd}, {true, m.PerLayer}} {
		line, err := contractLine(wr, c.trace)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Errorf("trace=%v: result line lacks correct/attempted/failed: %s", c.trace, line)
		}
		for _, n := range c.names {
			v, ok := got.Metrics[n.Name]
			if !ok || v.Value == nil || v.Unit != lookupMetric(n.Name).Unit {
				t.Errorf("trace=%v: %s missing from the result line or wrong unit", c.trace, n.Name)
			}
			delete(got.Metrics, n.Name)
		}
		for name := range got.Metrics {
			t.Errorf("trace=%v: result line carries %s, which BENCHMARK.json does not list for this mode", c.trace, name)
		}
	}
}

// goldenPins is inputs.golden as the generators define it: the digest of
// every workload's input for the default seed.
func goldenPins() (string, error) {
	var b strings.Builder
	for _, w := range []string{wArctic, wDist, wBudget} {
		in, err := communities[w].build(defaultSeed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s.fastq %s\n", w, sha(in.fastq))
	}
	ins, err := buildDaemonInputs(defaultSeed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%s.fastq %s\n", wDaemon, daemonInputsDigest(ins))
	r := &run{workers: runtime.GOMAXPROCS(0)}
	dump, _, err := captureDump(defaultSeed, r.pipelineConfig(55))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%s.dump %s\n", wLADump, sha(dump))
	return b.String(), nil
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	if *update {
		pins, err := goldenPins()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("inputs.golden", []byte(pins), 0o644); err != nil {
			t.Fatal(err)
		}
		return // the binary still embeds the old file
	}
	for _, key := range []string{wArctic + ".fastq", wLADump + ".dump", wDist + ".fastq", wBudget + ".fastq", wDaemon + ".fastq"} {
		if err := checkPin(defaultSeed, key, "0"); err == nil || !strings.Contains(err.Error(), "drifted") {
			t.Errorf("pin %s: want a drift error for a wrong digest, got %v", key, err)
		}
		if err := checkPin(defaultSeed+1, key, "0"); err != nil {
			t.Errorf("pin %s: a held-out seed must skip the pin, got %v", key, err)
		}
	}
}
