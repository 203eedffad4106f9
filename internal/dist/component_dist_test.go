package dist

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/synth"
)

// runDistShard runs the small test preset under an explicit shard policy.
func runDistShard(t *testing.T, pairs []dna.PairedRead, ranks int, policy string) (contigs, scaffolds interface{}, rep *Report) {
	t.Helper()
	cfg := testDistConfig(ranks)
	cfg.ShardPolicy = policy
	res, rep, err := Run(pairs, cfg)
	if err != nil {
		t.Fatalf("dist.Run ranks=%d shard=%s: %v", ranks, policy, err)
	}
	return res.Contigs, res.Scaffolds, rep
}

// TestDistComponentKernelListsMatchHash: the kernel launch lists — the
// unit of batch planning — are a function of the shard map only, so they
// are identical across rank counts under the component policy (though
// legitimately different from the hash policy's lists, which pack shards
// differently).
func TestDistComponentKernelListsMatchHash(t *testing.T) {
	t.Parallel()
	pairs := buildPairs(t)
	cfg := testDistConfig(1)
	cfg.ShardPolicy = ShardComponent
	base, _, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Work.GPUKernels) == 0 {
		t.Fatal("baseline produced no kernels")
	}
	for _, n := range []int{2, 8} {
		cfg := testDistConfig(n)
		cfg.ShardPolicy = ShardComponent
		res, _, err := Run(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Work.GPUKernels, base.Work.GPUKernels) {
			t.Errorf("ranks=%d: component-policy kernel list differs from single-rank run", n)
		}
	}
}

// TestComponentRedealMovesWholeComponents: for any live set, every contig
// of a component maps to the same rank — ownership moves component-wise
// under eviction because the re-deal moves shards and shards hold whole
// components.
func TestComponentRedealMovesWholeComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctgs := componentWorkload(rng, 15, 4)
	m := newComponentShardMap(21, ctgs, DefaultVirtualShards)
	liveSets := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 5, 6, 7}, // rank 4 crashed
		{1, 3, 5},             // heavy attrition
		{2},                   // sole survivor
	}
	for _, live := range liveSets {
		deal := newShardDeal(DefaultVirtualShards, live)
		compRank := make(map[int64]int)
		for _, c := range ctgs {
			comp := m.Component(c.ID)
			r := deal.rankOf(m.Shard(c.ID))
			if prev, ok := compRank[comp]; ok && prev != r {
				t.Fatalf("live=%v: component %d split across ranks %d and %d", live, comp, prev, r)
			}
			compRank[comp] = r
		}
	}
}

// TestComponentLocalityOnSoil: on a scaled-down soil community at N=8 the
// component policy moves strictly fewer — and at least 2× fewer — remote
// exchange+allgather bytes than the hash policy, with bit-identical
// output. (The full-size ≥5× criterion runs in CI's bench-smoke job.)
func TestComponentLocalityOnSoil(t *testing.T) {
	t.Parallel()
	p := synth.SoilPreset()
	p.Com.NumGenomes = 12
	_, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}

	relevant := func(rep *Report) (remote int64) {
		for i := range rep.Stages {
			st := &rep.Stages[i]
			if strings.HasPrefix(st.Stage, "read exchange") || strings.HasPrefix(st.Stage, "contig allgather") {
				remote += st.TotalBytes()
			}
		}
		return remote
	}

	hashC, hashS, hashRep := runDistShard(t, pairs, 8, ShardHash)
	compC, compS, compRep := runDistShard(t, pairs, 8, ShardComponent)
	if !reflect.DeepEqual(hashC, compC) || !reflect.DeepEqual(hashS, compS) {
		t.Fatal("shard policies produced different assemblies")
	}

	h, c := relevant(hashRep), relevant(compRep)
	if h == 0 || c == 0 && h == 0 {
		t.Fatalf("degenerate traffic: hash %d, component %d", h, c)
	}
	if c >= h {
		t.Errorf("component policy moved %d remote bytes, hash %d — not fewer", c, h)
	}
	if 2*c > h {
		t.Errorf("component policy moved %d remote bytes, want ≤ half of hash's %d", c, h)
	}
	if compRep.Locality() <= hashRep.Locality() {
		t.Errorf("component locality %.3f not above hash locality %.3f",
			compRep.Locality(), hashRep.Locality())
	}
	// Allgather stages are fully local under the component policy: no
	// cross-component contigs exist, so nothing needs broadcasting.
	for i := range compRep.Stages {
		st := &compRep.Stages[i]
		if strings.HasPrefix(st.Stage, "contig allgather") && st.TotalBytes() != 0 {
			t.Errorf("%s moved %d remote bytes under component policy", st.Stage, st.TotalBytes())
		}
	}
}
