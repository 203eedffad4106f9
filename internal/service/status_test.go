package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"mhm2sim/internal/report"
)

// TestFinishedJobStatus runs one gpu job to success and holds its Status
// to the two other places the same facts live: the job's own report (stage
// times, category by category) and the record a restarted daemon loads.
func TestFinishedJobStatus(t *testing.T) {
	dataDir := t.TempDir()
	s1 := newScheduler(t, Config{DataDir: dataDir, Workers: 1, Devices: 1})
	s1.Start()
	spec := tinySpec(3)
	spec.Engine = "gpu"
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s1, id, time.Minute)
	if st.State != StateSucceeded {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	if st.Devices != 1 || st.DeviceHeldNS <= 0 {
		t.Fatalf("gpu job reports devices=%d device_held_ns=%d", st.Devices, st.DeviceHeldNS)
	}

	// One source for stage times: every category Status bills equals the
	// report's, and the alignment stage's kernel share is its own category.
	rep, err := s1.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	sameStages(t, st, rep)
	if st.StagesNS["aln kernel"] <= 0 {
		t.Errorf("status stages_ns has no aln kernel time: %v", st.StagesNS)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := newScheduler(t, Config{DataDir: dataDir, Workers: 1, Devices: 1})
	st2, err := s2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	// Compared as the JSON a client sees (time.Time carries a monotonic
	// reading in memory that no file keeps).
	before, _ := json.Marshal(st)
	after, _ := json.Marshal(st2)
	if string(before) != string(after) {
		t.Errorf("status changed across a restart:\nbefore %s\nafter  %s", before, after)
	}
}

// sameStages fails unless st bills every non-zero stage time of rep, and
// only those, each with rep's value.
func sameStages(t *testing.T, st Status, rep *report.Report) {
	t.Helper()
	for name, ns := range rep.StagesNS {
		if ns != 0 && st.StagesNS[name] != ns {
			t.Errorf("stage %q: status %d ns, report %d ns", name, st.StagesNS[name], ns)
		}
	}
	for name, ns := range st.StagesNS {
		if rep.StagesNS[name] != ns {
			t.Errorf("stage %q: status %d ns, report %d ns", name, ns, rep.StagesNS[name])
		}
	}
}

// TestDistJobStages: a dist job's Status and report bill the same stage
// times. Neither holds the modeled fabric time, which is the report's
// dist.comm_time_ns and no host wall.
func TestDistJobStages(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, Devices: 2})
	s.Start()
	spec := tinySpec(5)
	spec.Engine, spec.Ranks = "dist", 2
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, 2*time.Minute)
	if st.State != StateSucceeded {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	rep, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	sameStages(t, st, rep)
	if rep.Dist == nil || rep.Dist.CommTimeNS <= 0 {
		t.Errorf("dist report has no fabric time: %+v", rep.Dist)
	}
}
