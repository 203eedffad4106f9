// Connected-component discovery over the contig graph.
//
// Metagenome de Bruijn graphs decompose into many disconnected components —
// one (or a few) per organism in communities without conserved shared
// sequence — and that structure is the basis of component-partitioned
// distribution (ParBLiSS metag_partitioning): a whole component can be
// owned, assembled, and extended by one rank with no cross-rank traffic.
// This file provides the deterministic union-find substrate: contigs join
// one component when they share a linking key (a candidate read, or a
// (k−1)-base end window — the dBG adjacency), and components are numbered
// canonically by their smallest member contig ID, so the resulting
// partition is a pure function of the input set, invariant under insertion
// order and rank count.

package dbg

// UnionFind is a disjoint-set forest over int64 contig IDs. Roots are
// always the smallest member of their set, which makes component numbering
// canonical for free: Find(x) IS the component ID of x, and the partition
// it induces is independent of the order unions were issued in.
type UnionFind struct {
	parent map[int64]int64
}

// NewUnionFind returns an empty forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[int64]int64)}
}

// Add registers an ID as its own singleton set (no-op if present).
func (u *UnionFind) Add(id int64) {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
	}
}

// Find returns the set representative of id: the smallest member of its
// component. Unregistered IDs are added as singletons. Path halving keeps
// chains short without disturbing the smallest-root invariant.
func (u *UnionFind) Find(id int64) int64 {
	u.Add(id)
	for u.parent[id] != id {
		u.parent[id] = u.parent[u.parent[id]]
		id = u.parent[id]
	}
	return id
}

// Union merges the sets of a and b. The smaller root becomes the parent,
// so a set's representative is always its minimum member — by induction:
// both roots are their sets' minima, and the merged root is the smaller of
// the two.
func (u *UnionFind) Union(a, b int64) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// Components returns the full id → componentID map, where a component's ID
// is its smallest member. Iteration order of the underlying map is
// irrelevant: every entry is resolved through Find, a pure function of the
// set structure.
func (u *UnionFind) Components() map[int64]int64 {
	out := make(map[int64]int64, len(u.parent))
	for id := range u.parent {
		out[id] = u.Find(id)
	}
	return out
}

// ComponentBuilder joins contigs that share linking keys: feed every
// (contig, key) observation in any order and the final components are the
// connected components of the bipartite contig/key graph — contigs
// reachable from one another through any chain of shared keys end up in
// one set. Keys are opaque uint64s; callers hash whatever adjacency they
// model (candidate read IDs, canonical end-window k-mers).
type ComponentBuilder struct {
	uf *UnionFind
	// anchor maps each key to the first contig observed with it; later
	// holders union against the anchor. Which contig anchors a key depends
	// on feed order, but the induced partition does not: union is
	// symmetric and transitive, so any representative yields the same
	// connected components.
	anchor map[uint64]int64
}

// NewComponentBuilder returns an empty builder.
func NewComponentBuilder() *ComponentBuilder {
	return &ComponentBuilder{uf: NewUnionFind(), anchor: make(map[uint64]int64)}
}

// Add registers a contig with no links yet (its own component until a
// shared key joins it to another).
func (b *ComponentBuilder) Add(id int64) { b.uf.Add(id) }

// Link records that contig id carries key, unioning it with every other
// contig sharing that key.
func (b *ComponentBuilder) Link(id int64, key uint64) {
	b.uf.Add(id)
	if first, ok := b.anchor[key]; ok {
		b.uf.Union(first, id)
		return
	}
	b.anchor[key] = id
}

// Components returns the canonical ctgID → componentID map (component ID =
// smallest member contig ID).
func (b *ComponentBuilder) Components() map[int64]int64 {
	return b.uf.Components()
}

// NumComponents counts the distinct components among registered contigs.
func (b *ComponentBuilder) NumComponents() int {
	roots := make(map[int64]struct{})
	for id := range b.uf.parent {
		roots[b.uf.Find(id)] = struct{}{}
	}
	return len(roots)
}
