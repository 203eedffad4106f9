package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
)

// randomWorkload builds contigs with random IDs and random candidate reads,
// the shape the runtime's Assemble receives from the alignment stage.
func randomWorkload(rng *rand.Rand, nCtg int) []*locassm.CtgWithReads {
	const bases = "ACGT"
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	randRead := func(id string) dna.Read {
		n := 50 + rng.Intn(100)
		return dna.Read{ID: id, Seq: randSeq(n), Qual: make([]byte, n)}
	}
	ctgs := make([]*locassm.CtgWithReads, nCtg)
	usedIDs := map[int64]bool{}
	for i := range ctgs {
		id := int64(rng.Intn(1 << 20))
		for usedIDs[id] {
			id = int64(rng.Intn(1 << 20))
		}
		usedIDs[id] = true
		c := &locassm.CtgWithReads{ID: id, Seq: randSeq(100 + rng.Intn(400))}
		for j := 0; j < rng.Intn(6); j++ {
			c.LeftReads = append(c.LeftReads, randRead(fmt.Sprintf("r%d/%d.L", i, j)))
		}
		for j := 0; j < rng.Intn(6); j++ {
			c.RightReads = append(c.RightReads, randRead(fmt.Sprintf("r%d/%d.R", i, j)))
		}
		ctgs[i] = c
	}
	return ctgs
}

// TestShardAssignmentIsPartition: for random contigs and every tested rank
// count, each contig lands in exactly one virtual shard, every shard maps
// to a valid rank, and shardContigs loses and duplicates nothing.
func TestShardAssignmentIsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctgs := randomWorkload(rng, 500)
	for _, n := range []int{1, 2, 3, 8} {
		byShard, idx := shardContigs(ctgs, hashShardMap{DefaultVirtualShards}, DefaultVirtualShards)
		seen := make(map[int64]int)
		total := 0
		for v := range byShard {
			if len(byShard[v]) != len(idx[v]) {
				t.Fatalf("n=%d shard %d: %d contigs but %d indices", n, v, len(byShard[v]), len(idx[v]))
			}
			for j, c := range byShard[v] {
				seen[c.ID]++
				total++
				if ctgs[idx[v][j]] != c {
					t.Fatalf("n=%d shard %d: index map broken at %d", n, v, j)
				}
				if VirtualShard(c.ID, DefaultVirtualShards) != v {
					t.Fatalf("n=%d: contig %d placed in wrong shard %d", n, c.ID, v)
				}
				owner := OwnerRank(c.ID, DefaultVirtualShards, n)
				if owner < 0 || owner >= n {
					t.Fatalf("n=%d: owner %d out of range", n, owner)
				}
				if owner != v%n {
					t.Fatalf("n=%d: owner %d inconsistent with shard %d", n, owner, v)
				}
			}
		}
		if total != len(ctgs) {
			t.Fatalf("n=%d: partition holds %d contigs, want %d", n, total, len(ctgs))
		}
		for id, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("n=%d: contig %d owned %d times", n, id, cnt)
			}
		}
	}
}

// TestOwnerRankDeterministic: ownership is a pure function of the ID.
func TestOwnerRankDeterministic(t *testing.T) {
	for id := int64(0); id < 1000; id++ {
		a := OwnerRank(id, DefaultVirtualShards, 8)
		b := OwnerRank(id, DefaultVirtualShards, 8)
		if a != b {
			t.Fatalf("owner of %d flapped: %d vs %d", id, a, b)
		}
	}
}

// TestReadExchangeConservesReads: for random inputs and N ∈ {1,2,3,8},
// every candidate read's bytes enter the exchange matrix exactly once per
// candidacy — nothing is lost or duplicated — and the fabric's send/recv
// accounting balances.
func TestReadExchangeConservesReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctgs := randomWorkload(rng, 300)

	var wantBytes int64
	var wantReads int
	for _, c := range ctgs {
		for i := range c.LeftReads {
			wantBytes += readMsgBytes(&c.LeftReads[i])
			wantReads++
		}
		for i := range c.RightReads {
			wantBytes += readMsgBytes(&c.RightReads[i])
			wantReads++
		}
	}
	if wantReads == 0 {
		t.Fatal("workload has no candidate reads")
	}

	for _, n := range []int{1, 2, 3, 8} {
		matrix := hashShardMap{}.exchangeMatrix(ctgs, hashShardMap{DefaultVirtualShards}, newShardDeal(DefaultVirtualShards, liveAll(n)), n)
		var got int64
		for src := range matrix {
			for _, b := range matrix[src] {
				got += b
			}
		}
		if got != wantBytes {
			t.Errorf("n=%d: matrix carries %d bytes, want %d (reads lost or duplicated)", n, got, wantBytes)
		}

		f := testFabric(t, n, DefaultFabricConfig())
		st, err := f.Exchange("reads", matrix)
		if err != nil {
			t.Fatal(err)
		}
		var sent, recv, local int64
		for r := 0; r < n; r++ {
			sent += st.Sent[r]
			recv += st.Recv[r]
			local += st.LocalBytes[r]
		}
		if sent != recv {
			t.Errorf("n=%d: fabric lost bytes in flight: sent %d, recv %d", n, sent, recv)
		}
		if sent+local != wantBytes {
			t.Errorf("n=%d: network %d + local %d ≠ total %d", n, sent, local, wantBytes)
		}
		if n == 1 && sent != 0 {
			t.Errorf("single rank sent %d bytes over the network", sent)
		}
	}
}

// TestAllgatherMatrixCoversAllRanks: every non-owner rank receives every
// contig exactly once.
func TestAllgatherMatrixCoversAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctgs := randomWorkload(rng, 200)
	var ctgBytes int64
	for _, c := range ctgs {
		ctgBytes += int64(len(c.Seq) + recordOverheadBytes)
	}
	for _, n := range []int{1, 2, 3, 8} {
		matrix := hashShardMap{}.gatherMatrix(ctgs, make([]locassm.Result, len(ctgs)), hashShardMap{DefaultVirtualShards}, newShardDeal(DefaultVirtualShards, liveAll(n)), n)
		var total int64
		for src := range matrix {
			for dst, b := range matrix[src] {
				if src == dst && b != 0 {
					t.Errorf("n=%d: rank %d broadcasts to itself", n, src)
				}
				total += b
			}
		}
		if want := ctgBytes * int64(n-1); total != want {
			t.Errorf("n=%d: allgather moves %d bytes, want %d", n, total, want)
		}
	}
}

// OwnerRank maps a contig ID to the rank owning it under the static deal of
// N ranks: what shardDeal.rankOf reduces to with every rank alive.
func OwnerRank(ctgID int64, shards, ranks int) int {
	return VirtualShard(ctgID, shards) % ranks
}

// liveAll returns the full live set 0..n-1.
func liveAll(n int) []int {
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	return live
}
