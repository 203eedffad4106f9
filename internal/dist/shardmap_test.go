package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
)

// componentWorkload builds contigs in explicit groups: contigs of one
// group share candidate-read IDs (pairwise chained), so each group must
// resolve to exactly one connected component.
func componentWorkload(rng *rand.Rand, groups, perGroup int) []*locassm.CtgWithReads {
	const bases = "ACGT"
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	var ctgs []*locassm.CtgWithReads
	id := int64(1)
	for g := 0; g < groups; g++ {
		for m := 0; m < perGroup; m++ {
			c := &locassm.CtgWithReads{ID: id, Seq: randSeq(150 + rng.Intn(300))}
			id += int64(1 + rng.Intn(5)) // sparse, unordered-looking IDs
			// Chain neighbours: contig m shares a read with contig m+1.
			if m > 0 {
				r := fmt.Sprintf("g%d/link%d", g, m-1)
				n := 80
				c.LeftReads = append(c.LeftReads, dna.Read{ID: r, Seq: randSeq(n), Qual: make([]byte, n)})
			}
			if m < perGroup-1 {
				r := fmt.Sprintf("g%d/link%d", g, m)
				n := 80
				c.RightReads = append(c.RightReads, dna.Read{ID: r, Seq: randSeq(n), Qual: make([]byte, n)})
			}
			// Plus private reads so weights differ.
			for j := 0; j < rng.Intn(4); j++ {
				n := 60 + rng.Intn(60)
				c.LeftReads = append(c.LeftReads, dna.Read{
					ID: fmt.Sprintf("g%d/m%d/p%d", g, m, j), Seq: randSeq(n), Qual: make([]byte, n)})
			}
			ctgs = append(ctgs, c)
		}
	}
	return ctgs
}

// TestComponentMapCoShardsComponents: every contig of a component lands on
// the same virtual shard, and the discovered component count matches the
// constructed groups.
func TestComponentMapCoShardsComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctgs := componentWorkload(rng, 12, 5)
	m := newComponentShardMap(21, ctgs, DefaultVirtualShards)
	if m.count != 12 {
		t.Fatalf("found %d components, want 12", m.count)
	}
	compShard := make(map[int64]int)
	for _, c := range ctgs {
		comp := m.Component(c.ID)
		s := m.Shard(c.ID)
		if s < 0 || s >= DefaultVirtualShards {
			t.Fatalf("contig %d on shard %d out of range", c.ID, s)
		}
		if prev, ok := compShard[comp]; ok && prev != s {
			t.Errorf("component %d split across shards %d and %d", comp, prev, s)
		}
		compShard[comp] = s
	}
}

// TestComponentMapPureUnderPermutation: the component map is a pure
// function of the contig set — shuffling the input order changes neither
// component IDs nor shard placement. This is the property that keeps
// contigs and kernel launch lists bit-identical across rank counts.
func TestComponentMapPureUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctgs := componentWorkload(rng, 10, 4)
	base := newComponentShardMap(21, ctgs, DefaultVirtualShards)

	for trial := 0; trial < 8; trial++ {
		shuffled := append([]*locassm.CtgWithReads(nil), ctgs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m := newComponentShardMap(21, shuffled, DefaultVirtualShards)
		for _, c := range ctgs {
			if m.Component(c.ID) != base.Component(c.ID) {
				t.Fatalf("trial %d: contig %d component flapped under permutation", trial, c.ID)
			}
			if m.Shard(c.ID) != base.Shard(c.ID) {
				t.Fatalf("trial %d: contig %d shard flapped under permutation", trial, c.ID)
			}
		}
	}
}

// TestComponentMapCanonicalNumbering: a component's ID is its smallest
// member contig ID.
func TestComponentMapCanonicalNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctgs := componentWorkload(rng, 8, 6)
	m := newComponentShardMap(21, ctgs, DefaultVirtualShards)
	smallest := make(map[int64]int64)
	for _, c := range ctgs {
		comp := m.Component(c.ID)
		if cur, ok := smallest[comp]; !ok || c.ID < cur {
			smallest[comp] = c.ID
		}
	}
	for comp, min := range smallest {
		if comp != min {
			t.Errorf("component %d: smallest member is %d", comp, min)
		}
	}
}

// TestComponentMapHashFallback: contigs outside the build set fall back to
// the hash shard so the map stays total.
func TestComponentMapHashFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ctgs := componentWorkload(rng, 4, 3)
	m := newComponentShardMap(21, ctgs, DefaultVirtualShards)
	const unknown = int64(1 << 40)
	if got, want := m.Shard(unknown), VirtualShard(unknown, DefaultVirtualShards); got != want {
		t.Errorf("unknown contig on shard %d, want hash shard %d", got, want)
	}
	if got := m.Component(unknown); got != unknown {
		t.Errorf("unknown contig in component %d, want its own ID", got)
	}
}

// TestComponentMapLPTBalance: affinity-aware LPT bounds the heaviest shard
// at the mean load plus three times the heaviest component (plain greedy
// gives mean + max; honoring a home shard within 2×max slack adds at most
// two more component weights).
func TestComponentMapLPTBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		ctgs := componentWorkload(rng, 30+rng.Intn(40), 1+rng.Intn(6))
		m := newComponentShardMap(21, ctgs, DefaultVirtualShards)

		compWeight := make(map[int64]int64)
		for _, c := range ctgs {
			compWeight[m.Component(c.ID)] += ctgWeight(c)
		}
		var maxComp int64
		for _, w := range compWeight {
			if w > maxComp {
				maxComp = w
			}
		}
		if m.maxLoad > m.meanLoad+3*maxComp {
			t.Errorf("trial %d: max shard load %d exceeds mean %d + 3×max component %d",
				trial, m.maxLoad, m.meanLoad, maxComp)
		}
		// The packing covers all weight: Σ shard loads == Σ component weights.
		var total int64
		for _, w := range compWeight {
			total += w
		}
		if m.meanLoad > total/int64(DefaultVirtualShards)+1 {
			t.Errorf("trial %d: mean load %d inconsistent with total weight %d", trial, m.meanLoad, total)
		}
	}
}

// TestShardPolicyValidation: unknown policies are rejected, known ones and
// the empty default pass.
func TestShardPolicyValidation(t *testing.T) {
	for _, p := range []string{"", ShardHash, ShardComponent} {
		cfg := testDistConfig(2)
		cfg.ShardPolicy = p
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
		}
	}
	cfg := testDistConfig(2)
	cfg.ShardPolicy = "round-robin"
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err == nil {
		t.Error("unknown shard policy accepted")
	}
}

// Component returns the component ID of a contig (a contig the map has not
// seen is its own component).
func (m *componentShardMap) Component(id int64) int64 {
	if c, ok := m.comp[id]; ok {
		return c
	}
	return id
}
