package service

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkersKeepCountersAcrossJobs: each of two workers counts every job it
// runs in its one dbg.Counter. The test runs jobs in pairs and holds each
// job's terminal status write until its partner's arrives too, so the two
// jobs of a pair run on different workers and each worker runs one job of
// every pair: a warm-up pair, the pair of a job canceled between its k-mer
// count and the release of its table (the pipeline stops before contig
// generation and drops that table with the Counter's free arrays in it),
// and three more pairs over the cpu, gpu and dist engines, at one or two
// rounds on inputs no earlier job read. Every job that succeeds writes the
// FASTA of its spec's standalone run.
func TestWorkersKeepCountersAcrossJobs(t *testing.T) {
	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 4, Devices: 3})
	arrived, proceed, stop := make(chan string), make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) }) // before the shutdown, on a failed run
	s.persistHook = func(st Status) {
		select {
		case arrived <- st.ID:
			select {
			case <-proceed:
			case <-stop:
			}
		case <-stop:
		}
	}
	s.Start()
	spec := func(engine string, seed int64, rounds ...int) JobSpec {
		sp := tinySpec(seed)
		sp.Engine, sp.Rounds = engine, rounds
		if engine == "dist" {
			sp.Ranks = 2
		}
		return sp
	}
	submit := func(sp JobSpec) string {
		t.Helper()
		id, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// settle lets the pair's two status writes through once both are held:
	// until then neither worker can take another job.
	settle := func(ids ...string) {
		t.Helper()
		for range ids {
			select {
			case <-arrived:
			case <-time.After(2 * time.Minute):
				t.Fatalf("jobs %v: fewer than two reached their status write", ids)
			}
		}
		for range ids {
			proceed <- struct{}{}
		}
		for _, id := range ids {
			waitTerminal(t, s, id, time.Minute)
		}
	}
	check := func(id string, sp JobSpec) {
		t.Helper()
		want, _ := standalone(t, sp)
		if st, _ := s.Status(id); st.State != StateSucceeded {
			t.Fatalf("%s job %s: state %s: %s", sp.Engine, id, st.State, st.Error)
		}
		path, err := s.OutputPath(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s job %s: FASTA differs from the standalone run's (read error %v)", sp.Engine, id, err)
		}
	}
	runPair := func(a, b JobSpec) {
		t.Helper()
		ia, ib := submit(a), submit(b)
		settle(ia, ib)
		check(ia, a)
		check(ib, b)
	}

	runPair(spec("cpu", 11, 21, 33), spec("gpu", 12, 21))

	// The job to cancel is alone until it is canceled: its second round's
	// k-mer analysis starts as its first round's checkpoint lands. A cancel
	// that misses the window (the error names a later stage) is retried.
	const window = "canceled before contig generation stage"
	for attempt := int64(0); ; attempt++ {
		victim := JobSpec{Seed: 20 + attempt, Genomes: 3, MinGenomeLen: 6000, MaxGenomeLen: 9000, Depth: 14, Rounds: []int{21, 33, 55}}
		id := submit(victim)
		ckpt := filepath.Join(jobDir(s.cfg.DataDir, id), ckptDir, "contigs-k21.fasta")
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(200 * time.Microsecond) {
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s wrote no round-21 checkpoint", id)
			}
		}
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		partner := spec("dist", 30+attempt, 21)
		pid := submit(partner)
		settle(id, pid)
		check(pid, partner)
		st, _ := s.Status(id)
		if st.State != StateCanceled {
			t.Fatalf("canceled job %s: state %s", id, st.State)
		}
		if strings.Contains(st.Error, window) {
			t.Logf("attempt %d canceled job %s in the window: %s", attempt, id, st.Error)
			break
		}
		if attempt == 4 {
			t.Fatalf("five cancels missed the window between count and release; the last: %s", st.Error)
		}
		t.Logf("attempt %d missed the window: %s", attempt, st.Error)
	}

	runPair(spec("cpu", 41, 21, 33), spec("dist", 42, 21))
	runPair(spec("gpu", 43, 21, 33), spec("cpu", 44, 21))
	runPair(spec("dist", 45, 21, 33), spec("gpu", 46, 21))
}
