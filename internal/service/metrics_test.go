package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestMetricsExposition pins the rendered text of a fixed sequence of
// Adds: family and sample sorting, label quoting, integer counts against
// shortest-float seconds, one TYPE line per family, and the pre-declared
// run totals at zero.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Add("mhm2d_jobs_finished_total", 1, "tenant", "b", "state", "succeeded")
	m.Add("mhm2d_jobs_finished_total", 2, "tenant", "a", "state", "succeeded")
	m.Add("mhm2d_jobs_finished_total", 1, "tenant", "a", "state", "failed")
	m.Add("mhm2d_jobs_finished_total", 1, "tenant", `x "y`, "state", "failed")
	m.Add("mhm2d_kmer_filtered_singletons_total", 1234567)
	m.Add("mhm2d_kmer_filtered_singletons_total", 1)
	// Seconds families take nanoseconds; the sum is divided once, so it
	// prints as the parent's int64 sum did (float64(Σns)/1e9), whatever
	// the sub-millisecond terms are.
	var runNS int64
	for _, d := range []time.Duration{250 * time.Millisecond, 1125 * time.Millisecond, 123457 * time.Nanosecond, 7 * time.Nanosecond, 999 * time.Microsecond} {
		m.Add("mhm2d_run_seconds_total", float64(d), "tenant", "a")
		runNS += int64(d)
	}
	var buf bytes.Buffer
	m.Render(&buf, map[string]float64{"mhm2d_queue_depth": 3, "mhm2d_device_busy_seconds_total": 2.5e9})
	const want = `# TYPE mhm2d_device_busy_seconds_total counter
mhm2d_device_busy_seconds_total 2.5
# TYPE mhm2d_elastic_joins_total counter
mhm2d_elastic_joins_total 0
# TYPE mhm2d_job_resumes_total counter
mhm2d_job_resumes_total 0
# TYPE mhm2d_job_retries_total counter
mhm2d_job_retries_total 0
# TYPE mhm2d_jobs_finished_total counter
mhm2d_jobs_finished_total{tenant="a",state="failed"} 1
mhm2d_jobs_finished_total{tenant="a",state="succeeded"} 2
mhm2d_jobs_finished_total{tenant="b",state="succeeded"} 1
mhm2d_jobs_finished_total{tenant="x \"y",state="failed"} 1
# TYPE mhm2d_kmer_budget_passes_total counter
mhm2d_kmer_budget_passes_total 0
# TYPE mhm2d_kmer_filtered_singletons_total counter
mhm2d_kmer_filtered_singletons_total 1234568
# TYPE mhm2d_kmer_oom_replans_total counter
mhm2d_kmer_oom_replans_total 0
# TYPE mhm2d_queue_depth gauge
mhm2d_queue_depth 3
# TYPE mhm2d_run_seconds_total counter
mhm2d_run_seconds_total{tenant="a"} 1.376122464
# TYPE mhm2d_stolen_batches_total counter
mhm2d_stolen_batches_total 0
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if line := fmt.Sprintf("mhm2d_run_seconds_total{tenant=\"a\"} %g\n", float64(runNS)/1e9); !strings.Contains(buf.String(), line) {
		t.Errorf("seconds sum is not the int64 nanosecond sum: want line %q", line)
	}
}
