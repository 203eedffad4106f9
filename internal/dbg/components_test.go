package dbg

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestUnionFindSmallestRoot: after any union sequence, every set's
// representative is its smallest member.
func TestUnionFindSmallestRoot(t *testing.T) {
	u := NewUnionFind()
	u.Union(9, 4)
	u.Union(4, 7)
	u.Union(100, 9)
	if got := u.Find(100); got != 4 {
		t.Errorf("Find(100) = %d, want smallest member 4", got)
	}
	u.Union(2, 100) // an even smaller member joins late
	for _, id := range []int64{2, 4, 7, 9, 100} {
		if got := u.Find(id); got != 2 {
			t.Errorf("Find(%d) = %d, want 2 after late union", id, got)
		}
	}
	u.Add(55)
	if got := u.Find(55); got != 55 {
		t.Errorf("singleton 55 has root %d", got)
	}
	if u.Find(55) == u.Find(2) {
		t.Error("singleton reported joined")
	}
}

// TestUnionFindPermutationInvariant: the ctgID → componentID map is
// identical no matter the order unions are issued in — the canonical
// numbering the shard map's N-invariance rests on.
func TestUnionFindPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type edge struct{ a, b int64 }
	var edges []edge
	for i := 0; i < 400; i++ {
		edges = append(edges, edge{int64(rng.Intn(200)), int64(rng.Intn(200))})
	}

	build := func(order []edge) map[int64]int64 {
		u := NewUnionFind()
		for id := int64(0); id < 200; id++ {
			u.Add(id)
		}
		for _, e := range order {
			u.Union(e.a, e.b)
		}
		return u.Components()
	}

	want := build(edges)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := build(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: component map depends on union order", trial)
		}
	}
}

// TestUnionFindTransitivity: chains of unions connect, disjoint chains do
// not, and Components agrees with Find.
func TestUnionFindTransitivity(t *testing.T) {
	u := NewUnionFind()
	for id := int64(0); id < 10; id++ {
		u.Add(id)
	}
	u.Union(0, 1)
	u.Union(1, 2)
	u.Union(3, 4)
	if u.Find(0) != u.Find(2) {
		t.Error("0 and 2 should connect through 1")
	}
	if u.Find(2) == u.Find(3) {
		t.Error("2 and 3 joined without a union path")
	}
	comps := u.Components()
	if comps[0] != comps[2] || comps[3] != comps[4] || comps[0] == comps[3] {
		t.Errorf("Components disagrees with Find: %v", comps)
	}
	if len(comps) != 10 {
		t.Errorf("Components holds %d ids, want 10", len(comps))
	}
}

// TestComponentBuilderSharedKeys: contigs sharing a key join one
// component, transitively through chains of keys, and the partition is
// feed-order invariant.
func TestComponentBuilderSharedKeys(t *testing.T) {
	type obs struct {
		id  int64
		key uint64
	}
	observations := []obs{
		{10, 0xa}, {20, 0xa}, // 10-20 share key a
		{20, 0xb}, {30, 0xb}, // 20-30 share key b → {10,20,30}
		{40, 0xc}, {50, 0xc}, // separate pair {40,50}
		{60, 0xd}, // 60 alone on key d
	}
	build := func(order []obs) map[int64]int64 {
		b := NewComponentBuilder()
		for _, id := range []int64{10, 20, 30, 40, 50, 60} {
			b.Add(id)
		}
		for _, o := range order {
			b.Link(o.id, o.key)
		}
		return b.Components()
	}
	want := map[int64]int64{10: 10, 20: 10, 30: 10, 40: 40, 50: 40, 60: 60}
	if got := build(observations); !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]obs(nil), observations...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := build(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: partition depends on feed order: %v", trial, got)
		}
	}

	b := NewComponentBuilder()
	for _, o := range observations {
		b.Link(o.id, o.key)
	}
	if n := b.NumComponents(); n != 3 {
		t.Errorf("NumComponents = %d, want 3", n)
	}
}
