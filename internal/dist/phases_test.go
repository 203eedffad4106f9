package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"mhm2sim/internal/faults"
	"mhm2sim/internal/simt"
)

// dropEach builds an injector that drops the first attempt of exchanges
// 0..n-1.
func dropEach(n int) *faults.Injector {
	plan := &faults.Plan{Ranks: 1, Rounds: 1}
	for ex := 0; ex < n; ex++ {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.FabricDrop, Exchange: ex, Times: 1})
	}
	return faults.NewInjector(plan)
}

// TestFabricFollowsMembership: the fabric keeps no liveness of its own. Over
// one Membership, a slot that is absent, then joined, then evicted observes
// failed attempts and pays the retry penalty only while it is a member; a
// standalone NewFabric charges every rank.
func TestFabricFollowsMembership(t *testing.T) {
	mem, err := NewMembership(2, 3, DefaultVirtualShards)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFabric(mem, DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.UseInjector(dropEach(3))
	const slot = 2
	steps := []struct {
		name       string
		change     func() error
		charged    bool
		wantFailed int
	}{
		{"absent", func() error { return nil }, false, 0},
		{"joined", func() error { return mem.Join(slot, 0) }, true, 1},
		{"evicted", func() error { return mem.Evict(slot, 1) }, false, 1},
	}
	for i, step := range steps {
		if err := step.change(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		st, err := f.Exchange(step.name, newMatrix(3)) // nothing moves: time is the penalty alone
		if err != nil {
			t.Fatal(err)
		}
		if st.Retries != 1 || st.RetryTime <= 0 {
			t.Fatalf("%s: exchange not dropped once (retries %d, +%v)", step.name, st.Retries, st.RetryTime)
		}
		want := st.RetryTime
		if !step.charged {
			want = 0
		}
		if st.PerRank[slot] != want {
			t.Errorf("%s: slot paid %v of the retry penalty, want %v", step.name, st.PerRank[slot], want)
		}
		if got := f.FailedAttempts(slot); got != step.wantFailed {
			t.Errorf("%s: slot observed %d failed attempts, want %d", step.name, got, step.wantFailed)
		}
		if st.PerRank[0] != st.RetryTime || f.FailedAttempts(0) != i+1 {
			t.Errorf("%s: initial member paid %v, observed %d failures; want %v, %d",
				step.name, st.PerRank[0], f.FailedAttempts(0), st.RetryTime, i+1)
		}
	}

	solo := testFabric(t, 8, DefaultFabricConfig())
	solo.UseInjector(dropEach(1))
	st, err := solo.Exchange("solo", newMatrix(8))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if st.PerRank[r] != st.RetryTime || solo.FailedAttempts(r) != 1 {
			t.Errorf("standalone fabric: rank %d paid %v and observed %d failures, want %v and 1",
				r, st.PerRank[r], solo.FailedAttempts(r), st.RetryTime)
		}
	}
}

// TestMovedOwnersMatchesBothLoops checks the shared helper against the two
// loops it replaced — the join bootstrap's matrix and running total, and the
// eviction's recovered-bytes sum — on grown, shrunk and unrelated deal pairs.
func TestMovedOwnersMatchesBothLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ctgs := componentWorkload(rng, 40, 5)
	const ranks = 8
	randomLive := func() []int {
		var live []int
		for r := 0; r < ranks; r++ {
			if rng.Intn(2) == 0 {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			live = []int{rng.Intn(ranks)}
		}
		return live
	}
	pairs := []struct {
		name          string
		before, after []int
	}{
		{"join", []int{0, 1, 2}, []int{0, 1, 2, 3}},
		{"evict", []int{0, 1, 2, 3}, []int{0, 1, 3}},
		{"unchanged", []int{0, 2, 5}, []int{0, 2, 5}},
		{"random", randomLive(), randomLive()},
	}
	smaps := map[string]ShardMap{
		"hash":      hashShardMap{DefaultVirtualShards},
		"component": newComponentShardMap(21, ctgs, DefaultVirtualShards),
	}
	for policy, smap := range smaps {
		for _, p := range pairs {
			before := newShardDeal(DefaultVirtualShards, p.before)
			after := newShardDeal(DefaultVirtualShards, p.after)

			// The join loop as it was in admitJoins.
			wantMatrix := newMatrix(ranks)
			var rebalanced int64
			for _, c := range ctgs {
				s := smap.Shard(c.ID)
				src, dst := before.rankOf(s), after.rankOf(s)
				if src != dst {
					b := int64(len(c.Seq) + recordOverheadBytes)
					wantMatrix[src][dst] += b
					rebalanced += b
				}
			}
			// The eviction loop as it was in evictCrashed.
			var recovered int64
			for _, c := range ctgs {
				s := smap.Shard(c.ID)
				if before.rankOf(s) != after.rankOf(s) {
					recovered += int64(len(c.Seq) + recordOverheadBytes)
				}
			}

			matrix, total := movedOwners(ctgs, smap, before, after, ranks)
			if !reflect.DeepEqual(matrix, wantMatrix) {
				t.Errorf("%s/%s: matrix differs from the join loop's", policy, p.name)
			}
			if total != rebalanced || total != recovered {
				t.Errorf("%s/%s: total %d, join loop %d, eviction loop %d", policy, p.name, total, rebalanced, recovered)
			}
			if p.name == "unchanged" && total != 0 {
				t.Errorf("%s: %d bytes moved between equal deals", policy, total)
			}
			if (p.name == "join" || p.name == "evict") && total == 0 {
				t.Errorf("%s/%s: no owner moved", policy, p.name)
			}
		}
	}
}

// TestJoinedRankPCIeIsThisRunsTraffic: the run's device source may hand a
// rank, initial or joining, a device that earlier work has used (the daemon's
// pool does); the rank's reported PCIe bytes are what this run moved, not the
// device's lifetime odometer.
func TestJoinedRankPCIeIsThisRunsTraffic(t *testing.T) {
	pairs := buildPairs(t)
	run := func(used bool) *Report {
		cfg := testDistConfig(2)
		cfg.Elastic = "join@r1:2"
		cfg.Pipeline.Engine.Devices = func() (*simt.Device, error) {
			dev := simt.NewDevice(simt.V100())
			t.Cleanup(dev.Close)
			if used {
				p, err := dev.Malloc(1 << 16)
				if err != nil {
					return nil, err
				}
				dev.MemcpyHtoD(p, make([]byte, 1<<16))
				dev.MemcpyDtoH(make([]byte, 1<<12), p)
				dev.FreeAll()
			}
			return dev, nil
		}
		_, rep, err := Run(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fresh, used := run(false), run(true)
	for r := range fresh.PerRank {
		f, u := fresh.PerRank[r], used.PerRank[r]
		if f.PCIeH2D == 0 {
			t.Errorf("rank %d moved no PCIe bytes", r)
		}
		if f.PCIeH2D != u.PCIeH2D || f.PCIeD2H != u.PCIeD2H {
			t.Errorf("rank %d: PCIe %d/%d on a fresh device, %d/%d on a used one",
				r, f.PCIeH2D, f.PCIeD2H, u.PCIeH2D, u.PCIeD2H)
		}
	}
}
