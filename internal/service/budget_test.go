package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/gpucount"
)

// TestSchedulerMemBudgetJob runs a daemon job under the tightest legal
// memory budget: the output must stay bit-identical to a standalone
// budget run, the persisted report must carry the kmer section, and the
// /metrics exposition must count the budget work.
func TestSchedulerMemBudgetJob(t *testing.T) {
	spec := tinySpec(3)
	spec.MemBudget = gpucount.MinMemBudget
	ref, _ := standalone(t, spec)

	dataDir := t.TempDir()
	s := newScheduler(t, Config{DataDir: dataDir, Workers: 1, QueueDepth: 4})
	s.Start()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, 2*time.Minute)
	if st.State != StateSucceeded {
		t.Fatalf("budget job: state %s: %s", st.State, st.Error)
	}
	got, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), outputFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("budget job output differs from standalone budget run")
	}

	rep, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kmer == nil {
		t.Fatal("persisted report is missing the kmer budget section")
	}
	if rep.Kmer.Passes < 2 {
		t.Fatalf("minimum budget ran %d passes, want ≥ 2", rep.Kmer.Passes)
	}
	if rep.Kmer.FilteredSingletons <= 0 {
		t.Fatal("Bloom prefilter dropped no singleton occurrences")
	}

	var mbuf bytes.Buffer
	s.RenderMetrics(&mbuf)
	m := mbuf.String()
	want := fmt.Sprintf("mhm2d_kmer_budget_passes_total %d", rep.Kmer.Passes)
	if !strings.Contains(m, want) {
		t.Fatalf("metrics missing %q in:\n%s", want, m)
	}
	if strings.Contains(m, "mhm2d_kmer_filtered_singletons_total 0\n") {
		t.Fatal("metrics did not accumulate filtered singletons")
	}
}

// TestSchedulerMemBudgetPassBound: a budget whose first round's reads alone
// would plan more counting passes than gpucount allows is refused at
// admission, POST /v1/jobs answering 400 with the numbers, and no job is
// queued; the same spec under a budget that fits is accepted.
func TestSchedulerMemBudgetPassBound(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), QueueDepth: 4}) // never started: admission only
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	spec := tinySpec(1)
	spec.MinGenomeLen, spec.MaxGenomeLen, spec.Depth = 10000, 10000, 200
	spec.MemBudget = gpucount.MinMemBudget
	_, err := NewPlan(spec)
	var bound *gpucount.PassBoundError
	if !errors.As(err, &bound) || bound.K != 21 || bound.Budget != gpucount.MinMemBudget {
		t.Fatalf("NewPlan at depth %g under the minimum budget: %v, want a PassBoundError", spec.Depth, err)
	}
	t.Log(err)
	resp, _ := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-bound budget job: status %d, want 400", resp.StatusCode)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("a refused job was queued: %+v", jobs)
	}

	spec.MemBudget = 64 << 20
	if resp, id := postJob(t, srv, spec); resp.StatusCode != http.StatusAccepted || id == "" {
		t.Fatalf("the same job under a budget that fits: status %d", resp.StatusCode)
	}
}
