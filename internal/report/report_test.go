package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/scaffold"
)

// fakeResult builds a small synthetic pipeline result (no pipeline run —
// the encoder only reads the result's fields).
func fakeResult() *pipeline.Result {
	res := &pipeline.Result{}
	for _, n := range []int{500, 300, 200, 100} {
		res.Contigs = append(res.Contigs, dbg.Contig{Seq: bytes.Repeat([]byte("A"), n)})
	}
	res.Scaffolds = []scaffold.Scaffold{{}, {}}
	res.Bins = []pipeline.RoundBins{{K: 21, Zero: 1, Small: 2, Large: 3}}
	return res
}

func TestComputeAssembly(t *testing.T) {
	st := ComputeAssembly(fakeResult())
	if st.Contigs != 4 || st.Bases != 1100 || st.Longest != 500 || st.Scaffolds != 2 {
		t.Fatalf("assembly summary: %+v", st)
	}
	// Running sum 500 < 550, 500+300 ≥ 550 → N50 = 300.
	if st.N50 != 300 {
		t.Errorf("N50 = %d, want 300", st.N50)
	}
	if len(st.Lens) != 4 || st.Lens[0] != 500 || st.Lens[3] != 100 {
		t.Errorf("Lens = %v", st.Lens)
	}
	// Odd total: half of 7 is 3.5, so 3 alone does not reach it — the N50
	// quality.Stats (-quality) reports for the same contigs.
	odd := &pipeline.Result{}
	for _, n := range []int{2, 3, 2} {
		odd.Contigs = append(odd.Contigs, dbg.Contig{Seq: bytes.Repeat([]byte("A"), n)})
	}
	if st := ComputeAssembly(odd); st.N50 != 2 || st.Bases != 7 || st.Longest != 3 {
		t.Errorf("lengths [2 3 2]: %+v, want N50 2 of 7 bases, longest 3", st)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := Build(fakeResult(), nil)
	if r.Schema != SchemaVersion {
		t.Fatalf("schema = %q", r.Schema)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a := back.Assembly
	if back.Schema != SchemaVersion || a.Contigs != 4 || a.Bases != 1100 ||
		a.N50 != 300 || a.Longest != 500 || a.Scaffolds != 2 {
		t.Errorf("loaded report: %+v", back)
	}
	if len(back.Bins) != 1 || back.Bins[0].K != 21 {
		t.Errorf("bins: %+v", back.Bins)
	}
}

// TestReportKmerSection: the kmer section appears exactly when the run
// counted under a memory budget, and round-trips the budget counters.
func TestReportKmerSection(t *testing.T) {
	if r := Build(fakeResult(), nil); r.Kmer != nil {
		t.Fatal("kmer section present without a budget run")
	}
	res := fakeResult()
	res.Work.KmerBudget = gpucount.BudgetStats{
		Configured: 8 << 20, Effective: 4 << 20,
		Passes: 6, PlannedPasses: 3, SpillPasses: 3, OOMReplans: 1,
		FilteredSingletons: 1234, Inserted: 100, FPInserted: 5,
	}
	r := Build(res, nil)
	if r.Kmer == nil {
		t.Fatal("kmer section missing for a budget run")
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"passes":6`, `"filtered_singletons":1234`, `"filter_fp_rate":0.05`, `"oom_replans":1`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("serialized report missing %s", key)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kmer == nil || back.Kmer.Passes != 6 || back.Kmer.Configured != 8<<20 ||
		back.Kmer.Effective != 4<<20 || back.Kmer.FilteredSingletons != 1234 {
		t.Errorf("kmer section did not round-trip: %+v", back.Kmer)
	}
}

// TestReportSchemaGate: Load refuses reports from another schema version,
// and the serialized form actually carries the schema field.
func TestReportSchemaGate(t *testing.T) {
	var buf bytes.Buffer
	if err := Build(fakeResult(), nil).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "mhm2sim-report/v1"`) {
		t.Fatalf("schema field missing:\n%s", buf.String())
	}

	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["schema"] = "mhm2sim-report/v999"
	b, _ := json.Marshal(raw)
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema report accepted: %v", err)
	}
	// Lens must not leak into the serialized form (it is derived data).
	if strings.Contains(buf.String(), "Lens") || strings.Contains(buf.String(), "lens") {
		t.Error("Lens serialized")
	}
}
