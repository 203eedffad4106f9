package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/simt"
)

// standalone runs the spec through the batch path (no scheduler, every device
// fresh) and returns its FASTA and its report.
func standalone(t *testing.T, spec JobSpec) ([]byte, *report.Report) {
	t.Helper()
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.WriteFASTAOutputs(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), report.Build(res, rep)
}

// modeled serializes a report with its host-clock fields zeroed: what is left
// is counts and modeled time, which a daemon job and a standalone run of one
// spec share digit for digit.
func modeled(t *testing.T, r *report.Report) string {
	t.Helper()
	c := *r
	c.TotalNS = 0
	c.StagesNS = nil
	if r.Dist != nil {
		d := *r.Dist
		d.ComponentPassNS = 0
		c.Dist = &d
	}
	b, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runJob submits the spec, waits for it to succeed, and checks the job's
// FASTA and report against the standalone run's and that every lease is back.
func runJob(t *testing.T, s *Scheduler, spec JobSpec) *report.Report {
	t.Helper()
	wantFASTA, wantRep := standalone(t, spec)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id, 2*time.Minute); st.State != StateSucceeded {
		t.Fatalf("%s job: state %s: %s", spec.Engine, st.State, st.Error)
	}
	path, err := s.OutputPath(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantFASTA) {
		t.Errorf("%s job: FASTA differs from the standalone run's (read error %v)", spec.Engine, err)
	}
	rep, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := modeled(t, rep), modeled(t, wantRep); got != want {
		t.Errorf("%s job: report differs from the standalone run's:\n%s\nwant:\n%s", spec.Engine, got, want)
	}
	if ps := s.pool.Stats(); ps.Leased != 0 {
		t.Errorf("%s job: %d pool devices still leased", spec.Engine, ps.Leased)
	}
	return rep
}

// shutdown stops the scheduler, which closes its pool.
func shutdown(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// newScheduler is the one constructor the tests share: it builds a
// scheduler over cfg and shuts it down when the test ends — before the
// test's TempDir goes, since it was registered later — so no worker is left
// writing under a removed directory. Callers start it themselves.
func newScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, s) })
	return s
}

// TestJobsComputeOnLeasedDevices: a dist job's ranks, a multigpu job's node
// and a mem_budget gpu job's engine and k-mer counting run on the devices the
// job leased — not on fresh ones beside an idle lease — and the outputs equal
// the standalone runs'.
func TestJobsComputeOnLeasedDevices(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 4, Devices: 2})
	s.Start()
	devs := append([]*simt.Device(nil), s.pool.free...)

	dist, multi := tinySpec(7), tinySpec(7)
	dist.Engine, dist.Ranks = "dist", 2
	multi.Engine, multi.GPUs = "multigpu", 2
	budget := tinySpec(7)
	budget.Engine, budget.MemBudget = "gpu", gpucount.MinMemBudget
	for _, spec := range []JobSpec{dist, multi, budget} {
		var before [2]int64
		for i, dev := range devs {
			before[i], _ = dev.CumTraffic()
		}
		runJob(t, s, spec)
		for i, dev := range devs {
			if h2d, _ := dev.CumTraffic(); h2d <= before[i] {
				t.Errorf("%s job: pool device %d moved no bytes (%d → %d)", spec.Engine, i, before[i], h2d)
			}
		}
	}
}

// TestLostDeviceIsNotLeasedAgain: a fault schedule poisons leased devices
// now that a dist job's ranks run on them; a released lease hands the pool
// fresh devices in their place, so the next job meets none of it, and the
// first job's recovery counters are the standalone run's (runJob compares the
// whole report).
func TestLostDeviceIsNotLeasedAgain(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 4, Devices: 2})
	s.Start()
	first := append([]*simt.Device(nil), s.pool.free...)

	chaos := tinySpec(9)
	chaos.Engine, chaos.Ranks, chaos.Faults = "dist", 2, "oom=2"
	rep := runJob(t, s, chaos)
	if rep.Dist.Recovery == nil || rep.Dist.Recovery.DeviceFallbacks == 0 {
		t.Fatalf("the schedule lost no device: %+v", rep.Dist.Recovery)
	}
	replaced := 0
	for _, dev := range s.pool.free {
		if dev.Lost() {
			t.Error("a lost device is back in the pool")
		}
		if dev != first[0] && dev != first[1] {
			replaced++
		}
	}
	if replaced != rep.Dist.Recovery.DeviceFallbacks {
		t.Errorf("%d pool devices replaced after %d device fallbacks", replaced, rep.Dist.Recovery.DeviceFallbacks)
	}

	gpu := tinySpec(9)
	gpu.Engine = "gpu"
	if rep := runJob(t, s, gpu); rep.GPU == nil || rep.GPU.Kernels == 0 {
		t.Error("the gpu job after the chaos job launched no kernel")
	}
}

// TestShutdownLeavesNothingBehind: Shutdown joins the workers and closes the
// pool's devices — each one that ever launched keeps a parked warp pool, which
// pins its arena — so a scheduler that ran a gpu and a dist job and shut down
// leaves the goroutine count where it was.
func TestShutdownLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 4, Devices: 3})
	s.Start()
	gpu, dist := tinySpec(4), tinySpec(4)
	gpu.Engine = "gpu"
	dist.Engine, dist.Ranks = "dist", 2
	var ids []string
	for _, spec := range []JobSpec{gpu, dist} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id, 2*time.Minute); st.State != StateSucceeded {
			t.Fatalf("job %s: state %s: %s", id, st.State, st.Error)
		}
	}
	shutdown(t, s)
	// Closed pools' workers exit on their own schedule.
	for i := 0; i < 2000 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines %d → %d across New, Start, two jobs, Shutdown:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
