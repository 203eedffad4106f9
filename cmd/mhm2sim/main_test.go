package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/preprocess"
	"mhm2sim/internal/report"
	"mhm2sim/internal/service"
	"mhm2sim/internal/synth"
)

func TestParseRounds(t *testing.T) {
	good := map[string][]int{
		"21":          {21},
		"21,33,55":    {21, 33, 55},
		" 21 , 33 ":   {21, 33},
		"21,33,55,77": {21, 33, 55, 77},
	}
	for in, want := range good {
		got, err := parseRounds(in)
		if err != nil {
			t.Errorf("parseRounds(%q): %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseRounds(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", ",", "21,", ",33", "abc", "21,abc", "21;33", "2 1"} {
		if out, err := parseRounds(in); err == nil {
			t.Errorf("parseRounds(%q) accepted: %v", in, out)
		}
	}
}

// tinyFASTQ is one read pair — enough for a plan, which never assembles.
const tinyFASTQ = "@r1/1\nACGTACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIII\n" +
	"@r1/2\nTTGCATGCATGCATGCATGCATGCATGC\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIII\n"

func writeTinyFASTQ(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reads.fastq")
	if err := os.WriteFile(path, []byte(tinyFASTQ), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIAndSpecPlanIdentically: a flag line and the JSON spec a daemon
// client would POST for the same run yield deeply equal plans — input and
// configuration — so the two front ends cannot assemble differently.
func TestCLIAndSpecPlanIdentically(t *testing.T) {
	reads := writeTinyFASTQ(t)
	rows := []struct {
		flags string
		json  string
	}{
		{"-preset arcticsynth", `{}`},
		{"-engine cpu", `{"engine":"cpu"}`},
		{"-engine gpu", `{"engine":"gpu"}`},
		{"-engine multigpu", `{"engine":"multigpu"}`},
		{"-engine multigpu -gpus 3", `{"engine":"multigpu","gpus":3}`},
		{"-rounds 21,33", `{"rounds":[21,33]}`},
		{"-mem-budget 8388608", `{"mem_budget":8388608}`},
		{"-engine gpu -mem-budget 65536 -rounds 21", `{"engine":"gpu","mem_budget":65536,"rounds":[21]}`},
		{"-engine dist -ranks 4", `{"engine":"dist","ranks":4}`},
		{"-engine dist -ranks 8 -shard hash", `{"engine":"dist","ranks":8,"shard":"hash"}`},
		{"-engine dist -ranks 8 -shard component", `{"engine":"dist","ranks":8,"shard":"component"}`},
		{"-engine dist -ranks 8 -faults rank-crash=1,oom=2 -fault-seed 7",
			`{"engine":"dist","ranks":8,"faults":"rank-crash=1,oom=2","fault_seed":7}`},
		{"-engine dist -ranks 2 -faults drop=1", `{"engine":"dist","ranks":2,"faults":"drop=1","fault_seed":42}`},
		{"-engine dist -ranks 4 -elastic join@r1:2,leave@r2:1 -host-ranks",
			`{"engine":"dist","ranks":4,"elastic":"join@r1:2,leave@r2:1","host_ranks":true}`},
		{"-engine dist -ranks 4 -rounds 21,33 -elastic join@r1:2 -faults straggler=2 -fault-seed 7 -shard component -mem-budget 134217728",
			`{"engine":"dist","ranks":4,"rounds":[21,33],"elastic":"join@r1:2","faults":"straggler=2","fault_seed":7,"shard":"component","mem_budget":134217728}`},
	}
	for _, row := range rows {
		args := append([]string{"-reads", reads}, strings.Fields(row.flags)...)
		var spec service.JobSpec
		if err := json.Unmarshal([]byte(row.json), &spec); err != nil {
			t.Fatalf("%s: %v", row.json, err)
		}
		spec.ReadsPath = reads
		var stderr bytes.Buffer
		opts, err := parseFlags(args, &stderr)
		if err != nil {
			t.Errorf("%s: %v (%s)", row.flags, err, stderr.String())
			continue
		}
		fromFlags, err := opts.plan()
		if err != nil {
			t.Errorf("%s: %v", row.flags, err)
			continue
		}
		fromJSON, err := service.NewPlan(spec)
		if err != nil {
			t.Errorf("%s: %v", row.json, err)
			continue
		}
		if len(fromFlags.Pairs) != 1 {
			t.Errorf("%s: plan holds %d read pairs, want 1", row.flags, len(fromFlags.Pairs))
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("plans differ:\n%s → %+v\n%s → %+v", row.flags, fromFlags.Pipeline, row.json, fromJSON.Pipeline)
		}
	}

}

// TestPresetPlanCarriesTruthGenomes: a preset plan from the flag line
// equals the spec's, reads and truth genomes included.
func TestPresetPlanCarriesTruthGenomes(t *testing.T) {
	opts, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := opts.plan()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := service.NewPlan(service.JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFlags.Pairs) == 0 || len(fromFlags.Genomes) == 0 {
		t.Fatalf("preset plan: %d pairs, %d genomes", len(fromFlags.Pairs), len(fromFlags.Genomes))
	}
	if !reflect.DeepEqual(fromFlags, fromJSON) {
		t.Error("default flag line and empty spec plan differently")
	}
}

// TestHostSideSettings: the flags that are not part of the spec land on
// the plan, and nothing else about the plan moves.
func TestHostSideSettings(t *testing.T) {
	reads := writeTinyFASTQ(t)
	opts, err := parseFlags([]string{"-reads", reads, "-engine", "dist", "-ranks", "2", "-host-ranks",
		"-preprocess", "-estimate-insert=false", "-workers", "3", "-checkpoint", "ck",
		"-json", "out.json", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.jsonPath != "out.json" || opts.cpuProfile != "cpu.pprof" || opts.memProfile != "mem.pprof" {
		t.Errorf("output flags wrong: %+v", opts)
	}
	got, err := opts.plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.NewPlan(opts.spec)
	if err != nil {
		t.Fatal(err)
	}
	pp := preprocess.DefaultConfig()
	want.Pipeline.Preprocess = &pp
	want.Pipeline.EstimateInsert = false
	want.Pipeline.Workers = 3
	want.Pipeline.CheckpointDir = "ck"
	if !reflect.DeepEqual(got, want) {
		t.Errorf("host-side settings:\n got %+v\nwant %+v", got.Dist, want.Dist)
	}
}

// TestRejections is the one table of inputs neither front end may accept:
// each row is a flag line (exit-2 usage error), the JSON spec a client
// would POST for it (400), or both — some mistakes only one front end can
// express. Rejection happens before any input is read, with a diagnostic
// naming the problem.
func TestRejections(t *testing.T) {
	rows := []struct {
		flags string // "" = not expressible on the command line
		json  string // "" = not expressible as a spec
		want  string // substring of both diagnostics
	}{
		// Flag syntax.
		{flags: "-ranks x"},
		{flags: "-no-such-flag"},
		// 0 means "unset" in a spec, so only the command line can say it.
		{flags: "-ranks 0", want: "-ranks must be ≥ 1"},
		{flags: "-gpus 0", want: "-gpus must be ≥ 1"},
		{flags: "-engine dist -ranks -3", json: `{"engine":"dist","ranks":-3}`},
		// Engine and ranks.
		{flags: "-engine auto", json: `{"engine":"auto"}`, want: "cpu|gpu|multigpu|dist"},
		{flags: "-engine warp9", json: `{"engine":"warp9"}`, want: `unknown engine "warp9"`},
		{flags: "-ranks 4", json: `{"ranks":4}`, want: "engine=dist"},
		{flags: "-engine gpu -ranks 2", json: `{"engine":"gpu","ranks":2}`, want: "engine=dist"},
		{flags: "-engine dist", json: `{"engine":"dist"}`, want: "ranks ≥ 2"},
		{flags: "-engine dist -ranks 1", json: `{"engine":"dist","ranks":1}`, want: "ranks ≥ 2"},
		{flags: "-host-ranks", json: `{"host_ranks":true}`, want: "host_ranks requires engine=dist"},
		{flags: "-gpu", want: "-gpu"},
		{flags: "-nosteal", json: `{"engine":"dist","ranks":2,"nosteal":true}`, want: "nosteal"},
		{flags: "-engine dist -ranks 2000000000", json: `{"engine":"dist","ranks":2000000000}`, want: "ceiling"},
		{flags: "-engine multigpu -gpus 2000000000", json: `{"engine":"multigpu","gpus":2000000000}`, want: "ceiling"},
		{flags: "-engine dist -ranks 33", json: `{"engine":"dist","ranks":33}`, want: "virtual shards"},
		// Dist-only fields on another engine.
		{flags: "-faults drop=1", json: `{"faults":"drop=1"}`, want: "faults requires engine=dist"},
		{flags: "-elastic join@r0:1", json: `{"elastic":"join@r0:1"}`, want: "elastic requires engine=dist"},
		{flags: "-shard component", json: `{"shard":"component"}`, want: "shard=component requires engine=dist"},
		{flags: "-shard zigzag", json: `{"shard":"zigzag"}`, want: "zigzag"},
		// Malformed dist fields.
		{flags: "-engine dist -ranks 4 -shard zigzag", json: `{"engine":"dist","ranks":4,"shard":"zigzag"}`, want: `unknown shard policy "zigzag"`},
		{flags: "-engine dist -ranks 4 -faults explode=1", json: `{"engine":"dist","ranks":4,"faults":"explode=1"}`, want: "unknown fault kind"},
		{flags: "-engine dist -ranks 4 -faults drop", json: `{"engine":"dist","ranks":4,"faults":"drop"}`, want: "kind=count"},
		{flags: "-engine dist -ranks 4 -faults rank-crash=4", json: `{"engine":"dist","ranks":4,"faults":"rank-crash=4"}`, want: "no survivor"},
		{flags: "-engine dist -ranks 4 -faults drop=2000000000", json: `{"engine":"dist","ranks":4,"faults":"drop=2000000000"}`, want: "more than"},
		{flags: "-engine dist -ranks 2 -elastic bogus", json: `{"engine":"dist","ranks":2,"elastic":"bogus"}`, want: "elastic entry"},
		{flags: "-engine dist -ranks 2 -rounds 21 -elastic join@r5:1", json: `{"engine":"dist","ranks":2,"rounds":[21],"elastic":"join@r5:1"}`, want: "targets round 5"},
		{flags: "-engine dist -ranks 2 -elastic leave@r0:2", json: `{"engine":"dist","ranks":2,"elastic":"leave@r0:2"}`, want: "no live rank"},
		{flags: "-engine dist -ranks 2 -elastic join@r0:2000000000", json: `{"engine":"dist","ranks":2,"elastic":"join@r0:2000000000"}`, want: "ceiling"},
		// Budget and rounds.
		{flags: "-mem-budget -5", json: `{"mem_budget":-5}`, want: "negative"},
		{flags: "-mem-budget 1024", json: `{"mem_budget":1024}`, want: "minimum"},
		{flags: "-rounds 33,21", json: `{"rounds":[33,21]}`, want: "strictly increasing"},
		{flags: "-rounds 21,21", json: `{"rounds":[21,21]}`, want: "strictly increasing"},
		{flags: "-rounds 21,129", json: `{"rounds":[21,129]}`, want: "outside [4,128]"},
		{flags: "-rounds 3,21", json: `{"rounds":[3,21]}`, want: "outside [4,128]"},
		{flags: "-rounds abc", json: `{"rounds":"abc"}`},
		{flags: "-rounds 21,,33", json: `{"rounds":[21,null,33]}`},
		{flags: "-rounds ,"},
		{flags: "-rounds 21;33"},
		// Input.
		{flags: "-preset nope", json: `{"preset":"nope"}`, want: "unknown preset"},
		{json: `{"genomes":-1}`, want: "negative community override"},
		{json: `{"depth":-0.5}`, want: "negative community override"},
	}
	sched, err := service.New(service.Config{DataDir: t.TempDir()}) // never started: admission only
	if err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(service.NewHandler(sched))
	defer daemon.Close()
	for _, row := range rows {
		if row.flags != "" {
			var stderr bytes.Buffer
			if opts, err := parseFlags(strings.Fields(row.flags), &stderr); err == nil {
				t.Errorf("flags %q accepted: %+v", row.flags, opts.spec)
			} else if !strings.Contains(stderr.String(), row.want) || stderr.Len() == 0 {
				// The exit-2 path must diagnose, not fail silently.
				t.Errorf("flags %q: diagnostic %q lacks %q", row.flags, stderr.String(), row.want)
			}
		}
		if row.json != "" {
			resp, err := http.Post(daemon.URL+"/v1/jobs", "application/json", strings.NewReader(row.json))
			if err != nil {
				t.Fatal(err)
			}
			var reply struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest {
				t.Errorf("spec %s: status %d (%v), want 400", row.json, resp.StatusCode, err)
			} else if !strings.Contains(reply.Error, row.want) {
				t.Errorf("spec %s: error %q lacks %q", row.json, reply.Error, row.want)
			}
		}
	}
	// -rounds "" is an empty entry, not "use the default".
	if _, err := parseFlags([]string{"-rounds", ""}, io.Discard); err == nil {
		t.Error(`-rounds "" accepted`)
	}
}

// TestRunErrorLine pins the exhausted-retries exit contract: a distinct
// nonzero status and one structured, greppable line — not a stack trace.
func TestRunErrorLine(t *testing.T) {
	wrapped := fmt.Errorf("dist: exchange 3 (read exchange k=21) still failing after 3 of 5 injected failures: %w",
		dist.ErrUnrecoverable)
	line, code := runErrorLine(wrapped)
	if code != exitFault {
		t.Errorf("unrecoverable fault exits %d, want %d", code, exitFault)
	}
	if !strings.HasPrefix(line, "unrecoverable-fault:") {
		t.Errorf("line not structured: %q", line)
	}
	if !strings.Contains(line, "read exchange k=21") {
		t.Errorf("line lost the failing stage: %q", line)
	}
	if strings.Contains(line, "goroutine") || strings.Contains(line, "\n") {
		t.Errorf("line looks like a stack trace: %q", line)
	}

	line, code = runErrorLine(errors.New("disk full"))
	if code != 1 || line != "disk full" {
		t.Errorf("generic error classified as (%q, %d)", line, code)
	}
	if code == exitFault {
		t.Error("generic errors must not reuse the fault exit status")
	}
}

// TestJSONReportRoundTrip runs a tiny distributed assembly and checks the
// JSON report carries the per-rank comm/compute breakdown.
func TestJSONReportRoundTrip(t *testing.T) {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 2
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 5_000, 7_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 12
	_, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dist.DefaultConfig(2)
	dcfg.Pipeline = pipeline.DefaultConfig()
	dcfg.Pipeline.Rounds = []int{21}
	res, rep, err := dist.Run(pairs, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := report.Build(res, rep).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var jr report.Report
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if jr.Schema != report.SchemaVersion {
		t.Errorf("report schema %q, want %q", jr.Schema, report.SchemaVersion)
	}
	if jr.Assembly.Contigs == 0 || jr.TotalNS <= 0 {
		t.Errorf("assembly summary empty: %+v", jr.Assembly)
	}
	if jr.GPU == nil || jr.GPU.Kernels == 0 {
		t.Error("GPU summary missing from distributed run JSON")
	}
	if jr.Dist == nil {
		t.Fatal("dist section missing")
	}
	if jr.Dist.Ranks != 2 || jr.Dist.CommTimeNS <= 0 || jr.Dist.CommBytes <= 0 {
		t.Errorf("dist section wrong: %+v", jr.Dist)
	}
	if len(jr.Dist.PerRank) != 2 {
		t.Fatalf("per-rank breakdown has %d entries", len(jr.Dist.PerRank))
	}
	var busy int64
	for _, r := range jr.Dist.PerRank {
		busy += int64(r.Busy)
		if !r.Alive {
			t.Errorf("rank %d dead in a fault-free run", r.Rank)
		}
	}
	if busy <= 0 {
		t.Error("no busy time in per-rank breakdown")
	}
	if jr.Dist.Recovery != nil {
		t.Error("recovery section present in a fault-free run")
	}
}

// TestJSONReportRecoverySection: a faulted run surfaces its recovery
// counters and schedule in the JSON report.
func TestJSONReportRecoverySection(t *testing.T) {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 2
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 5_000, 7_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 12
	_, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dist.DefaultConfig(2)
	dcfg.Pipeline = pipeline.DefaultConfig()
	dcfg.Pipeline.Rounds = []int{21}
	plan, err := faults.NewPlan("drop=1", 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dcfg.Faults = plan
	res, rep, err := dist.Run(pairs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := report.Build(res, rep)
	if jr.Dist == nil || jr.Dist.Recovery == nil {
		t.Fatal("recovery section missing from faulted run JSON")
	}
	if jr.Dist.Recovery.ExchangeRetries == 0 || jr.Dist.Recovery.RetryTime <= 0 {
		t.Errorf("retry counters empty: %+v", jr.Dist.Recovery)
	}
	if jr.Dist.Faults == "" || jr.Dist.Faults == "no faults" {
		t.Errorf("fault schedule missing from JSON: %q", jr.Dist.Faults)
	}
}
