package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/report"
)

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (*http.Response, string) {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out.ID
}

// TestHTTPAPI drives the full client flow against a live scheduler:
// submit → poll → result → contigs, plus every error-path status code.
func TestHTTPAPI(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 4, TenantMaxActive: 3})
	s.Start()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Submit a tiny job.
	resp, id := postJob(t, srv, tinySpec(1))
	if resp.StatusCode != http.StatusAccepted || id == "" {
		t.Fatalf("submit: %d, id=%q", resp.StatusCode, id)
	}

	// Malformed and invalid submissions are 400s.
	if resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json")); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %v %d", err, resp.StatusCode)
	}
	bad := tinySpec(1)
	bad.Engine = "quantum"
	if resp, _ := postJob(t, srv, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid engine: %d", resp.StatusCode)
	}

	// Unknown job IDs are 404 on every per-job route.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/contigs"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil || resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %v %d", path, err, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Poll the job to completion.
	deadline := time.Now().Add(time.Minute)
	var st Status
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateSucceeded {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// The result endpoint serves the shared report schema.
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("result: %v %d", err, resp2.StatusCode)
	}
	var rep report.Report
	if err := json.NewDecoder(resp2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if rep.Schema != report.SchemaVersion || rep.Assembly.Contigs == 0 {
		t.Fatalf("report: %+v", rep)
	}

	// The contigs endpoint serves FASTA.
	resp3, err := http.Get(srv.URL + "/v1/jobs/" + id + "/contigs")
	if err != nil || resp3.StatusCode != http.StatusOK {
		t.Fatalf("contigs: %v %d", err, resp3.StatusCode)
	}
	fasta, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !bytes.HasPrefix(fasta, []byte(">")) {
		t.Fatalf("contigs endpoint returned non-FASTA: %.40q", fasta)
	}

	// The list endpoint includes the job.
	resp4, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil || resp4.StatusCode != http.StatusOK {
		t.Fatalf("list: %v %d", err, resp4.StatusCode)
	}
	var list []Status
	if err := json.NewDecoder(resp4.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if len(list) == 0 || list[0].ID != id {
		t.Fatalf("list: %+v", list)
	}

	// Metrics and health.
	resp5, _ := http.Get(srv.URL + "/metrics")
	mb, _ := io.ReadAll(resp5.Body)
	resp5.Body.Close()
	if !strings.Contains(string(mb), "mhm2d_jobs_submitted_total") {
		t.Fatalf("metrics:\n%s", mb)
	}
	resp6, _ := http.Get(srv.URL + "/healthz")
	if resp6.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp6.StatusCode)
	}
	resp6.Body.Close()
}

// TestHTTPBackpressure: over-quota and over-queue submissions surface as
// 429, result-before-ready as 409, cancel as 204.
func TestHTTPBackpressure(t *testing.T) {
	// Workers never started: jobs stay queued.
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 3, TenantMaxActive: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	specFor := func(tenant string) JobSpec {
		sp := tinySpec(1)
		sp.Tenant = tenant
		return sp
	}
	var firstID string
	for i := 0; i < 2; i++ {
		resp, id := postJob(t, srv, specFor("a"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if i == 0 {
			firstID = id
		}
	}
	// Tenant quota (2) exhausted → 429.
	if resp, _ := postJob(t, srv, specFor("a")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota: %d", resp.StatusCode)
	}
	// Queue (3) has one slot left for other tenants, then overflows → 429.
	if resp, _ := postJob(t, srv, specFor("b")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant b: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, specFor("c")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue: %d", resp.StatusCode)
	}

	// Result of a queued job → 409.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + firstID + "/result")
	if err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before ready: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Cancel → 204. The queue slot is freed once a worker drains the stale
	// entry, so start the workers and retry until the flood clears.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+firstID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	s.Start()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, _ := postJob(t, srv, specFor("c"))
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("post-cancel submit: %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Draining → 503.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, srv, specFor("d")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", resp.StatusCode)
	}
}

// TestSubmitBodyBounds: the daemon reads at most MaxSpecBytes of a submitted
// body (413 beyond), and a spec whose schedule names billions of ranks is a
// 400 that sizes nothing from the number — it used to replay every join
// (gigabytes, tens of seconds) before any bound was checked.
func TestSubmitBodyBounds(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), QueueDepth: 4}) // never started: admission only
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	huge := `{"tenant":"` + strings.Repeat("a", MaxSpecBytes) + `"}`
	if code := post(strings.NewReader(huge)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(huge), code)
	}
	padded := `{"tenant":"a",` + strings.Repeat(" ", MaxSpecBytes/2) + `"rounds":[21]}`
	if code := post(strings.NewReader(padded)); code != http.StatusAccepted {
		t.Errorf("well-formed %d-byte body: status %d, want 202", len(padded), code)
	}

	// A field JobSpec does not have, misspelt or retired, is refused rather
	// than silently dropped, and so is a tenant /metrics could not label a
	// sample with unescaped; a spec persisted before the field went still
	// loads, so its job resumes.
	for _, spec := range []string{`{"engin":"gpu"}`, `{"engine":"dist","ranks":2,"nosteal":true}`, `{"tenant":"a\tb"}`} {
		if code := post(strings.NewReader(spec)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", spec, code)
		}
	}
	dir := t.TempDir()
	if err := os.MkdirAll(jobDir(dir, formatJobID(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir(dir, formatJobID(1)), specFile), []byte(`{"engine":"dist","ranks":2,"nosteal":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if jobs, _, err := loadJobs(dir); err != nil || len(jobs) != 1 || jobs[0].Spec.Ranks != 2 {
		t.Errorf("persisted spec with a retired field: %+v, %v", jobs, err)
	}

	post(strings.NewReader(`{"engine":"nope"}`)) // warm the connection and handler
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range []string{
		`{"engine":"dist","ranks":2,"elastic":"join@r0:2000000000"}`,
		`{"engine":"dist","ranks":2,"faults":"join=2000000000"}`,
		`{"engine":"dist","ranks":2000000000}`,
		`{"engine":"multigpu","gpus":2000000000}`,
	} {
		if code := post(strings.NewReader(spec)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", spec, code)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("four rejections allocated %d bytes", got)
	if got > 1<<20 {
		t.Errorf("rejecting oversized schedules allocated %d bytes, want < 1 MiB", got)
	}
}
