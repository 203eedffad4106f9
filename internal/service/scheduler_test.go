package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/faults"
)

// tinySpec builds a fast (<50ms) single-round job whose input is fully
// determined by seed.
func tinySpec(seed int64) JobSpec {
	return JobSpec{
		Seed: seed, Genomes: 1, MinGenomeLen: 3000, MaxGenomeLen: 3000,
		Depth: 10, Rounds: []int{21},
	}
}

// standaloneOutput runs the spec's input through the batch pipeline (no
// scheduler, no daemon) and returns the serialized contigs + scaffolds —
// the reference the daemon's persisted outputs must match byte for byte.
func standaloneOutput(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	fasta, _ := standalone(t, spec)
	return fasta
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Scheduler, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerStress floods the scheduler with >100 concurrent small jobs
// mixing every engine and four tenants over a shared 4-device pool, with a
// queue small enough to force admission rejects. Every job's persisted
// contigs must be bit-identical to a standalone batch run of the same
// input — across cpu, gpu, multigpu, and dist engines, which is the
// repo-wide determinism invariant carried into the service tier.
func TestSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs >100 assembly jobs")
	}
	const (
		inputs     = 30
		perInput   = 4 // one per engine
		totalJobs  = inputs * perInput
		queueDepth = 16
	)

	// Reference outputs, one per distinct input; every engine must hit the
	// same bytes.
	ref := make(map[int64][]byte, inputs)
	for seed := int64(1); seed <= inputs; seed++ {
		ref[seed] = standaloneOutput(t, tinySpec(seed))
	}

	dataDir := t.TempDir()
	s := newScheduler(t, Config{DataDir: dataDir, Workers: 6, QueueDepth: queueDepth, Devices: 4})
	s.Start()

	engines := []string{"cpu", "gpu", "multigpu", "dist"}
	var rejects atomic.Int64
	ids := make([]string, totalJobs)
	seeds := make([]int64, totalJobs)
	var wg sync.WaitGroup
	for i := 0; i < totalJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i%inputs) + 1
			spec := tinySpec(seed)
			spec.Engine = engines[i%len(engines)]
			spec.Tenant = fmt.Sprintf("tenant-%d", i%4)
			if spec.Engine == "multigpu" {
				spec.GPUs = 2
			}
			if spec.Engine == "dist" {
				spec.Ranks = 2
			}
			for {
				id, err := s.Submit(spec)
				if err == nil {
					ids[i], seeds[i] = id, seed
					return
				}
				if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrQuotaExceeded) {
					t.Errorf("job %d: %v", i, err)
					return
				}
				rejects.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		st := waitTerminal(t, s, id, 2*time.Minute)
		if st.State != StateSucceeded {
			t.Fatalf("job %s (engine %s): state %s: %s", id, st.Spec.Engine, st.State, st.Error)
		}
		got, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), outputFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[seeds[i]]) {
			t.Fatalf("job %s (engine %s, seed %d): output differs from standalone run",
				id, st.Spec.Engine, seeds[i])
		}
	}

	// A 16-deep queue fed by 120 concurrent submissions must have pushed
	// back at least once — otherwise the admission control never engaged.
	if rejects.Load() == 0 {
		t.Error("no admission rejects observed; backpressure untested")
	}

	// The metrics must reflect the flood.
	var mbuf bytes.Buffer
	s.RenderMetrics(&mbuf)
	m := mbuf.String()
	for _, want := range []string{
		`mhm2d_jobs_finished_total{tenant="tenant-0",state="succeeded"} 30`,
		`mhm2d_jobs_rejected_total`,
		`mhm2d_device_leases_total`,
		`mhm2d_stage_seconds_total{stage="local_assembly"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestSchedulerAdmission: tenant quotas and the bounded queue both reject
// with their sentinel errors (the HTTP layer's 429s). The scheduler is
// never started, so admitted jobs stay queued.
func TestSchedulerAdmission(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), QueueDepth: 3, TenantMaxActive: 2})
	a := tinySpec(1)
	a.Tenant = "a"
	if _, err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(a); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third job of tenant a: %v", err)
	}
	b := tinySpec(1)
	b.Tenant = "b"
	if _, err := s.Submit(b); err != nil {
		t.Fatal(err) // other tenants are unaffected by a's quota
	}
	if _, err := s.Submit(b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fourth queued job: %v", err)
	}

	// Invalid specs are rejected outright.
	bad := tinySpec(1)
	bad.Engine = "quantum"
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("unknown engine admitted")
	}
	bad = tinySpec(1)
	bad.Engine = "dist" // needs ranks ≥ 2
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("dist without ranks admitted")
	}

	// Draining refuses everything.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinySpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
}

// TestSchedulerCancel covers both cancel paths: a queued job is terminally
// canceled in place; a running job stops at its next stage boundary.
func TestSchedulerCancel(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 8})
	// Queued cancel (workers not started yet).
	id, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id)
	if st.State != StateCanceled {
		t.Fatalf("queued cancel: state %s", st.State)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	if _, err := s.Result(id); !errors.Is(err, ErrNotReady) {
		t.Fatalf("result of canceled job: %v", err)
	}
	if err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job: %v", err)
	}

	// Running cancel: a multi-round job is canceled mid-run.
	s.Start()
	spec := JobSpec{Seed: 3, Genomes: 3, MinGenomeLen: 6000, MaxGenomeLen: 9000,
		Depth: 14, Rounds: []int{21, 33, 45, 55}}
	id, err = s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s.Status(id)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s, id, time.Minute)
	if st.State != StateCanceled {
		t.Fatalf("running cancel: state %s (%s)", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("cancel error: %q", st.Error)
	}
}

// TestTerminalStatusWrittenBeforeVisible: both paths that end a job — a
// cancel of a queued job and a worker settling a run — write status.json
// before Status reports the terminal state. A hook holds each write open;
// while it is held the job must not look terminal.
func TestTerminalStatusWrittenBeforeVisible(t *testing.T) {
	dataDir := t.TempDir()
	s := newScheduler(t, Config{DataDir: dataDir, Workers: 1, QueueDepth: 4})
	writing := make(chan Status, 2) // one per job the test ends
	release, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) }) // before the shutdown, on a failed run
	s.persistHook = func(st Status) {
		writing <- st
		select {
		case <-release:
		case <-stop:
		}
	}
	held := func(id string, want State) {
		t.Helper()
		if st := <-writing; st.ID != id || st.State != want {
			t.Fatalf("status write for %s %s, want %s %s", st.ID, st.State, id, want)
		}
		if st, _ := s.Status(id); st.State.Terminal() {
			t.Errorf("job %s reports %s before its status.json is written", id, st.State)
		}
		release <- struct{}{}
	}
	written := func(id string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(jobDir(dataDir, id), statusFile)); err != nil {
			t.Errorf("job %s is terminal without a status file: %v", id, err)
		}
	}

	queued, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	canceled := make(chan error, 1)
	go func() { canceled <- s.Cancel(queued) }()
	held(queued, StateCanceled)
	if err := <-canceled; err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(queued); st.State != StateCanceled {
		t.Fatalf("queued cancel returned with the job %s", st.State)
	}
	written(queued)

	s.Start()
	id, err := s.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	held(id, StateSucceeded)
	waitTerminal(t, s, id, time.Minute)
	written(id)
}

// TestSchedulerFaultRetry: a dist job whose chaos schedule is
// unrecoverable under ANY seed exhausts the scheduler's reseeded retries
// and fails with the attempts accounted. A 1-round run has only two
// targetable exchanges and the fabric's default retry budget is 3, so 8
// drop events (each failing an exchange 1–2 times) always overload one
// exchange past the budget, whatever the seed draws.
func TestSchedulerFaultRetry(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 4, JobRetries: 2})
	s.Start()
	spec := tinySpec(5)
	spec.Engine = "dist"
	spec.Ranks = 2
	spec.Faults = "drop=8"
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, time.Minute)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "unrecoverable") {
		t.Errorf("error %q does not mention the unrecoverable fault", st.Error)
	}
	if st.Attempts != 3 { // initial + JobRetries reseeded retries
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
}

// TestRetryPlansFromSpec: attempt k of a job plans its spec with the fault
// seed moved by k, so each retry draws a fresh schedule of the same mix —
// retrying the identical deterministic plan would fail identically.
func TestRetryPlansFromSpec(t *testing.T) {
	spec := tinySpec(5).withDefaults()
	spec.Engine, spec.Ranks, spec.Faults = "dist", 4, "rank-crash=1,kernel-abort=2,drop=2"
	var first string
	for k := 0; k < 3; k++ {
		plan, err := attemptPlan(spec, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := faults.NewPlan(spec.Faults, spec.FaultSeed+int64(k), spec.Ranks, len(spec.Rounds))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.Dist.Faults, want) {
			t.Errorf("attempt %d plans %v, want %v", k, plan.Dist.Faults, want)
		}
		if k == 0 {
			first = plan.Dist.Faults.String()
		} else if plan.Dist.Faults.String() == first {
			t.Errorf("attempt %d draws attempt 0's schedule %q", k, first)
		}
	}
}

// TestSchedulerRestartResume is the daemon-restart contract end to end: a
// multi-round job is interrupted by Shutdown after its first checkpoint, a
// new scheduler over the same data directory re-queues it, and the
// finished output is bit-identical to an uninterrupted standalone run.
func TestSchedulerRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-round job twice")
	}
	dataDir := t.TempDir()
	spec := JobSpec{Seed: 11, Genomes: 3, MinGenomeLen: 6000, MaxGenomeLen: 9000,
		Depth: 14, Rounds: []int{21, 33, 45, 55}}
	want := standaloneOutput(t, spec)

	s1 := newScheduler(t, Config{DataDir: dataDir, Workers: 1, QueueDepth: 4})
	s1.Start()
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first round's checkpoint, then pull the plug.
	ckpt := filepath.Join(jobDir(dataDir, id), ckptDir, "contigs-k21.fasta")
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first checkpoint never appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := s1.Status(id); st.State.Terminal() {
		t.Fatalf("interrupted job reached terminal state %s", st.State)
	}

	// "Restart the daemon": a fresh scheduler over the same directory.
	s2 := newScheduler(t, Config{DataDir: dataDir, Workers: 1, QueueDepth: 4})
	if n := s2.Resumable(); n != 1 {
		t.Fatalf("resumable jobs after restart: %d", n)
	}
	s2.Start()
	st := waitTerminal(t, s2, id, 2*time.Minute)
	if st.State != StateSucceeded {
		t.Fatalf("resumed job: state %s: %s", st.State, st.Error)
	}
	if st.Resumes < 1 {
		t.Errorf("resumed job reports %d resumes", st.Resumes)
	}
	got, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), outputFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted standalone run")
	}
	// The restarted scheduler also still serves the finished job's result.
	rep, err := s2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assembly.Contigs == 0 {
		t.Error("persisted report has no contigs")
	}

	// Third incarnation: the terminal job is loaded as done, not re-run.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	s3 := newScheduler(t, Config{DataDir: dataDir, Workers: 1, QueueDepth: 4})
	if n := s3.Resumable(); n != 0 {
		t.Fatalf("finished job re-queued on restart: %d resumable", n)
	}
	st3, err := s3.Status(id)
	if err != nil || st3.State != StateSucceeded {
		t.Fatalf("finished job after second restart: %+v, %v", st3, err)
	}
}

// TestSchedulerShardPolicy: JobSpec.Shard is validated at admission and a
// component-shard dist job's persisted output is bit-identical to both the
// standalone run and the hash-policy job — the shard map relocates work,
// never changes it.
func TestSchedulerShardPolicy(t *testing.T) {
	dataDir := t.TempDir()
	s := newScheduler(t, Config{DataDir: dataDir, Workers: 2, QueueDepth: 8})
	s.Start()

	// Component sharding targets the dist engine; unknown policies bounce.
	bad := tinySpec(9)
	bad.Shard = dist.ShardComponent
	if _, err := s.Submit(bad); err == nil {
		t.Error("shard=component without engine=dist accepted")
	}
	bad.Engine = "dist"
	bad.Ranks = 2
	bad.Shard = "zigzag"
	if _, err := s.Submit(bad); err == nil {
		t.Error("unknown shard policy accepted")
	}

	spec := tinySpec(9)
	spec.Engine = "dist"
	spec.Ranks = 4
	want := standaloneOutput(t, spec)
	outputs := make(map[string][]byte)
	for _, policy := range []string{dist.ShardHash, dist.ShardComponent} {
		spec.Shard = policy
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("shard=%s: %v", policy, err)
		}
		if st := waitTerminal(t, s, id, time.Minute); st.State != StateSucceeded {
			t.Fatalf("shard=%s: job ended %s (%s)", policy, st.State, st.Error)
		}
		got, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), outputFile))
		if err != nil {
			t.Fatal(err)
		}
		outputs[policy] = got
		if !bytes.Equal(got, want) {
			t.Errorf("shard=%s: output differs from standalone run", policy)
		}
	}
	if !bytes.Equal(outputs[dist.ShardHash], outputs[dist.ShardComponent]) {
		t.Error("hash and component jobs produced different outputs")
	}
}
