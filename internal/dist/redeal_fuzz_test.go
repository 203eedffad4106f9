package dist

import (
	"fmt"
	"testing"
)

// FuzzShardRedeal drives the survivor re-deal with arbitrary rank counts,
// death sets, and full elastic membership schedules: ownership must stay a
// deterministic, collision-free partition of every virtual shard over the
// live ranks at every epoch — no shard dealt to a dead or absent rank,
// none orphaned, none double-owned, balanced round-robin, and identical to
// the static deal when nobody died. opSeq drives a Membership through an
// arbitrary interleaving of joins and evictions on top of the death set.
func FuzzShardRedeal(f *testing.F) {
	f.Add(uint8(8), uint16(0), uint8(0), uint32(0))
	f.Add(uint8(8), uint16(0b0110), uint8(2), uint32(0b1011))
	f.Add(uint8(2), uint16(1), uint8(4), uint32(0xDEAD))
	f.Add(uint8(16), uint16(0xFFFE), uint8(1), uint32(1))
	f.Add(uint8(3), uint16(0b101), uint8(7), uint32(0xCAFEF00D))
	f.Fuzz(func(t *testing.T, ranks uint8, deadMask uint16, joins uint8, opSeq uint32) {
		n := int(ranks%16) + 1
		var live []int
		for r := 0; r < n; r++ {
			if deadMask&(1<<r) == 0 {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			// The runtime guarantees at least one survivor; mirror that.
			live = []int{n - 1}
		}
		liveSet := make(map[int]bool, len(live))
		for _, r := range live {
			liveSet[r] = true
		}

		deal := newShardDeal(DefaultVirtualShards, live)
		perRank := make(map[int]int)
		owners := make([]int, DefaultVirtualShards)
		for s := 0; s < DefaultVirtualShards; s++ {
			r := deal.rankOf(s)
			if !liveSet[r] {
				t.Fatalf("shard %d dealt to dead rank %d (live %v)", s, r, live)
			}
			owners[s] = r
			perRank[r]++
		}

		// Deterministic: the same live set always yields the same deal.
		again := newShardDeal(DefaultVirtualShards, live)
		for s := 0; s < DefaultVirtualShards; s++ {
			if again.rankOf(s) != owners[s] {
				t.Fatalf("shard %d ownership flapped: %d vs %d", s, owners[s], again.rankOf(s))
			}
		}

		// Collision-free partition of the contig space: a contig's owner is
		// exactly its shard's owner.
		for id := int64(0); id < 256; id++ {
			want := owners[VirtualShard(id, DefaultVirtualShards)]
			if got := deal.ownerRank(id); got != want {
				t.Fatalf("contig %d owned by %d, its shard by %d", id, got, want)
			}
		}

		// Balanced: round-robin over survivors deals ⌊V/L⌋ or ⌈V/L⌉ shards
		// per live rank.
		lo := DefaultVirtualShards / len(live)
		hi := lo
		if DefaultVirtualShards%len(live) != 0 {
			hi++
		}
		for _, r := range live {
			if c := perRank[r]; c < lo || c > hi {
				t.Fatalf("rank %d holds %d shards, want %d..%d (live %v)", r, c, lo, hi, live)
			}
		}

		// With every rank alive the deal reduces to the static s mod n one.
		if len(live) == n {
			for s := 0; s < DefaultVirtualShards; s++ {
				if owners[s] != s%n {
					t.Fatalf("full live set: shard %d on rank %d, want %d", s, owners[s], s%n)
				}
			}
		}

		// Read homes land on live ranks too.
		for i := 0; i < 64; i++ {
			if r := deal.readHome(fmt.Sprintf("read%d/1", i)); !liveSet[r] {
				t.Fatalf("read homed on dead rank %d", r)
			}
		}

		// Membership schedule: start from the full initial rank set with
		// reserved capacity for the fuzzed joins, then replay an arbitrary
		// opSeq-driven interleaving of joins and evictions. The epoch
		// invariant must hold after every single change: the cached deal
		// partitions every shard over exactly the live set.
		capacity := n + int(joins%8)
		m, err := NewMembership(n, capacity, DefaultVirtualShards)
		if err != nil {
			t.Fatal(err)
		}
		checkEpoch := func(step int) {
			aliveSet := make(map[int]bool)
			for _, r := range m.Live() {
				if r < 0 || r >= capacity {
					t.Fatalf("step %d: live rank %d outside capacity %d", step, r, capacity)
				}
				if aliveSet[r] {
					t.Fatalf("step %d: rank %d listed live twice", step, r)
				}
				aliveSet[r] = true
			}
			d := m.Deal()
			per := make(map[int]int)
			for s := 0; s < DefaultVirtualShards; s++ {
				owner := d.rankOf(s)
				if !aliveSet[owner] {
					t.Fatalf("step %d: shard %d dealt to non-live rank %d (live %v)",
						step, s, owner, m.Live())
				}
				per[owner]++
			}
			// Every shard got exactly one owner above (rankOf is total), so
			// orphan-freedom reduces to the per-rank counts summing to V and
			// staying balanced.
			lo := DefaultVirtualShards / len(m.Live())
			hi := lo
			if DefaultVirtualShards%len(m.Live()) != 0 {
				hi++
			}
			total := 0
			for _, r := range m.Live() {
				c := per[r]
				total += c
				if c < lo || c > hi {
					t.Fatalf("step %d: rank %d holds %d shards, want %d..%d", step, r, c, lo, hi)
				}
			}
			if total != DefaultVirtualShards {
				t.Fatalf("step %d: %d shards owned, want %d", step, total, DefaultVirtualShards)
			}
		}
		checkEpoch(0)

		nextJoin := n
		seq := opSeq
		for step := 1; step <= 16 && seq != 0; step++ {
			epoch := m.Epoch()
			if seq&1 == 1 && nextJoin < capacity {
				if err := m.Join(nextJoin, step); err != nil {
					t.Fatalf("step %d: join rank %d: %v", step, nextJoin, err)
				}
				nextJoin++
			} else if m.LiveCount() > 1 {
				// Evict the lowest live rank, deterministically.
				if err := m.Evict(m.Live()[0], step); err != nil {
					t.Fatalf("step %d: evict: %v", step, err)
				}
			} else {
				seq >>= 1
				continue
			}
			if m.Epoch() != epoch+1 {
				t.Fatalf("step %d: epoch went %d → %d, want +1", step, epoch, m.Epoch())
			}
			checkEpoch(step)
			seq >>= 1
		}
	})
}

// ownerRank returns the live rank owning a contig.
func (d *shardDeal) ownerRank(ctgID int64) int {
	return d.rankOf(VirtualShard(ctgID, d.shards))
}
