package dist

import (
	"reflect"
	"testing"
)

// TestMembershipLifecycle walks a full elastic schedule — joins and
// evictions interleaved — checking the epoch counter, the live set, the
// cached deal, and the per-epoch history at every step.
func TestMembershipLifecycle(t *testing.T) {
	m, err := NewMembership(2, 5, DefaultVirtualShards)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 0 || m.Capacity() != 5 || m.LiveCount() != 2 {
		t.Fatalf("epoch0: epoch=%d capacity=%d live=%d, want 0/5/2", m.Epoch(), m.Capacity(), m.LiveCount())
	}
	if !reflect.DeepEqual(m.Live(), []int{0, 1}) {
		t.Fatalf("epoch0 live = %v, want [0 1]", m.Live())
	}
	for _, r := range []int{2, 3, 4} {
		if m.Alive(r) {
			t.Errorf("reserved slot %d alive before its join", r)
		}
	}

	// Join two reserved slots at round 1.
	for i, r := range []int{2, 3} {
		if err := m.Join(r, 1); err != nil {
			t.Fatalf("join rank %d: %v", r, err)
		}
		if m.Epoch() != i+1 {
			t.Fatalf("after join %d: epoch %d, want %d", r, m.Epoch(), i+1)
		}
	}
	if !reflect.DeepEqual(m.Live(), []int{0, 1, 2, 3}) {
		t.Fatalf("post-join live = %v, want [0 1 2 3]", m.Live())
	}
	if got := m.JoinedRound(2); got != 1 {
		t.Errorf("JoinedRound(2) = %d, want 1", got)
	}
	if got := m.JoinedRound(0); got != -1 {
		t.Errorf("JoinedRound(0) = %d, want -1 for an initial member", got)
	}

	// The cached deal must be exactly the deal a fresh build would yield.
	want := newShardDeal(DefaultVirtualShards, m.Live())
	for s := 0; s < DefaultVirtualShards; s++ {
		if m.Deal().rankOf(s) != want.rankOf(s) {
			t.Fatalf("cached deal diverges from fresh deal at shard %d", s)
		}
	}

	// Evict a founding member; the joiners keep serving.
	if err := m.Evict(0, 2); err != nil {
		t.Fatal(err)
	}
	if m.Alive(0) || m.Epoch() != 3 {
		t.Fatalf("post-evict: alive(0)=%v epoch=%d, want false/3", m.Alive(0), m.Epoch())
	}
	if !reflect.DeepEqual(m.Live(), []int{1, 2, 3}) {
		t.Fatalf("post-evict live = %v, want [1 2 3]", m.Live())
	}
	if got := m.EpochLiveCounts(); !reflect.DeepEqual(got, []int{2, 3, 4, 3}) {
		t.Fatalf("EpochLiveCounts = %v, want [2 3 4 3]", got)
	}
}

// TestMembershipErrors pins the rejected transitions: double joins,
// rejoin after eviction, out-of-range ranks, evicting a non-member, and
// evicting the last live rank.
func TestMembershipErrors(t *testing.T) {
	if _, err := NewMembership(0, 4, 32); err == nil {
		t.Error("zero initial ranks accepted")
	}
	if _, err := NewMembership(4, 2, 32); err == nil {
		t.Error("capacity below initial accepted")
	}
	if _, err := NewMembership(2, 2, 0); err == nil {
		t.Error("zero shards accepted")
	}

	m, err := NewMembership(2, 3, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Join(0, 0); err == nil {
		t.Error("joining an existing member accepted")
	}
	if err := m.Join(3, 0); err == nil {
		t.Error("join outside capacity accepted")
	}
	if err := m.Evict(2, 0); err == nil {
		t.Error("evicting a never-joined slot accepted")
	}
	if err := m.Evict(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Join(1, 1); err == nil {
		t.Error("evicted rank allowed to rejoin")
	}
	if err := m.Evict(0, 1); err == nil {
		t.Error("evicting the last live rank accepted")
	}
	// Failed transitions must not bump the epoch.
	if m.Epoch() != 1 {
		t.Errorf("epoch %d after one successful eviction, want 1", m.Epoch())
	}
}

// BenchmarkMembershipEpoch measures one membership change at N=8 — the
// epoch bump plus the incremental re-deal that refreshes the cache. This
// is the whole per-change cost of the elastic model.
func BenchmarkMembershipEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewMembership(8, 9, DefaultVirtualShards)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Join(8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardDealCached measures the ownership query path between
// membership changes: Deal() is a cached pointer load, where rt.deal()
// used to rescan the alive bitmap and rebuild the deal on every call
// (BenchmarkShardDealRebuild is that old cost, kept as the comparison
// baseline).
func BenchmarkShardDealCached(b *testing.B) {
	m, err := NewMembership(8, 8, DefaultVirtualShards)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.Deal().rankOf(i % DefaultVirtualShards)
	}
	_ = sink
}

// BenchmarkShardDealRebuild is the pre-elastic per-call cost: scan the
// alive set, rebuild the round-robin deal, answer one query.
func BenchmarkShardDealRebuild(b *testing.B) {
	alive := make([]bool, 8)
	for r := range alive {
		alive[r] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		var live []int
		for r, ok := range alive {
			if ok {
				live = append(live, r)
			}
		}
		sink += newShardDeal(DefaultVirtualShards, live).rankOf(i % DefaultVirtualShards)
	}
	_ = sink
}

// Live returns the ascending live rank IDs of the current epoch.
func (m *Membership) Live() []int { return m.live }
