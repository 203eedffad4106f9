package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"mhm2sim/internal/pipeline"
)

// Metrics is the daemon's counter registry behind /metrics, rendered in
// the Prometheus text exposition format (by hand — no client library). A
// counter has no declaration: it exists from the first Add at the line that
// measures it, so adding one is that line. The family name carries the
// unit: a family with "_seconds" in its name takes nanoseconds and renders
// their sum as seconds (one division, at Render), any other takes and
// renders an integer; one ending in "_total" is a counter, any other a
// gauge. Both are exact up to 2^53.
type Metrics struct {
	mu sync.Mutex
	// families maps family name → rendered label set ("" or
	// `{tenant="a",state="failed"}`) → accumulated value.
	families map[string]map[string]float64
}

// NewMetrics builds a registry. The seven label-less run totals start at
// zero, so that a daemon that has not yet retried, resumed, counted under a
// budget or grown a job exposes them as 0 instead of not at all.
func NewMetrics() *Metrics {
	m := &Metrics{families: make(map[string]map[string]float64)}
	for _, f := range []string{
		"mhm2d_job_retries_total", "mhm2d_job_resumes_total",
		"mhm2d_kmer_budget_passes_total", "mhm2d_kmer_filtered_singletons_total", "mhm2d_kmer_oom_replans_total",
		"mhm2d_elastic_joins_total", "mhm2d_stolen_batches_total",
	} {
		m.Add(f, 0)
	}
	return m
}

// Add accumulates v (nanoseconds for a "_seconds" family) into the sample
// of family named by the label pairs (key, value, key, value, …; none for
// a label-less family).
func (m *Metrics) Add(family string, v float64, labels ...string) {
	var key string
	for i := 0; i+1 < len(labels); i += 2 {
		key += fmt.Sprintf(",%s=%q", labels[i], labels[i+1])
	}
	if key != "" {
		key = "{" + key[1:] + "}"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	samples := m.families[family]
	if samples == nil {
		samples = make(map[string]float64)
		m.families[family] = samples
	}
	samples[key] += v
}

// Render writes the exposition, families and their samples sorted: the
// registry's own plus live, the label-less values the scheduler and the
// device pool hold themselves (queue depth, leases, …).
func (m *Metrics) Render(w io.Writer, live map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.families)+len(live))
	for f := range m.families {
		names = append(names, f)
	}
	for f := range live {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		samples, ok := m.families[f]
		if !ok {
			samples = map[string]float64{"": live[f]}
		}
		kind, format, unit := "gauge", "%s%s %.0f\n", 1.0
		if strings.HasSuffix(f, "_total") {
			kind = "counter"
		}
		if strings.Contains(f, "_seconds") {
			format, unit = "%s%s %g\n", 1e9
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f, kind)
		keys := make([]string, 0, len(samples))
		for k := range samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, format, f, k, samples[k]/unit)
		}
	}
}

// stageObserver bills every finished stage's per-category time to the
// registry and to one job's StagesNS — category by category from the
// Timings delta, so the alignment stage lands as alignment + aln kernel
// exactly as in the job's report. One observer per pipeline execution.
type stageObserver struct {
	met    *Metrics
	stages map[string]time.Duration
}

func (o *stageObserver) StageStart(pipeline.StageEvent) {}

func (o *stageObserver) StageFinish(_ pipeline.StageEvent, _ time.Duration, timings pipeline.Timings, _ pipeline.WorkRecord) {
	for s, d := range timings.Wall {
		if d > 0 {
			name := pipeline.Stage(s).String()
			o.stages[name] += d
			o.met.Add("mhm2d_stage_seconds_total", float64(d), "stage", metricName(name))
		}
	}
}

// metricName sanitizes a label value ("local assembly" → "local_assembly").
func metricName(s string) string {
	return strings.NewReplacer(" ", "_", "-", "_", "/", "_").Replace(s)
}
