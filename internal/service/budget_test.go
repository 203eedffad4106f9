package service

import (
	"bytes"
	"fmt"
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
