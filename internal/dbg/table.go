package dbg

import (
	"cmp"
	"slices"

	"mhm2sim/internal/kmer"
	"mhm2sim/internal/par"
)

// A partition is grown (doubled) by the insert that would take it past
// maxLoadNum/maxLoadDen full, and Filter rebuilds it at exactly that load.
const (
	maxLoadNum = 2
	maxLoadDen = 3
)

// occPerSlot sizes a fresh table: Count expects one distinct k-mer per this
// many occurrences of the round it counts. Deep, clean input never grows
// from there; error-rich input doubles once or twice.
const occPerSlot = 4

// Table holds counted canonical k-mers: one open-addressing, linear-probing
// hash table over the packed words that cover K, with each k-mer's Info
// stored inline. It is split into partitions by the high half of
// HashK(K, 0) — one per counting worker, each written by that worker alone
// — and the low half picks the home slot inside the partition (both by
// multiply-shift, so neither size has to be a power of two).
type Table struct {
	K     int
	words int // uint64 words of a key: those covering K bases
	parts []partition
}

type partition struct {
	words int
	keys  []uint64 // words per slot; all zero in an empty slot
	info  []Info   // Count == 0 marks an empty slot
	n     int      // occupied slots
}

// slotsFor returns the capacity that holds n k-mers at the load bound, with
// the empty slot every probe needs to terminate.
func slotsFor(n int) int { return n*maxLoadDen/maxLoadNum + 1 }

// newTable returns an empty table with room for about distinct k-mers.
func newTable(k, parts, distinct int) *Table {
	t := &Table{K: k, words: (k + 31) / 32, parts: make([]partition, parts)}
	for i := range t.parts {
		t.parts[i] = partition{words: t.words}
		t.parts[i].rebuild(slotsFor(distinct/parts), 1)
	}
	return t
}

// NewTable returns an empty table for about distinct k-mers that are counted
// elsewhere: the GPU budget counter reads its device entries back with Add,
// so traversal sees one table however it was counted.
func NewTable(k, distinct int) *Table { return newTable(k, 1, distinct) }

// Add sums info into the record of a canonical k-mer. Not for concurrent
// use.
func (t *Table) Add(canon kmer.Kmer, info Info) {
	if info.Count == 0 {
		return
	}
	h := canon.HashK(t.K, 0)
	rec := t.parts[t.owner(h)].upsert(canon.W[:t.words], uint32(h))
	rec.Count += info.Count
	for b := range rec.Left {
		rec.Left[b] += info.Left[b]
		rec.Right[b] += info.Right[b]
	}
}

// owner returns the partition that holds k-mers hashing to h.
func (t *Table) owner(h uint64) int { return int(h >> 32 * uint64(len(t.parts)) >> 32) }

// Len returns the number of distinct canonical k-mers.
func (t *Table) Len() int {
	n := 0
	for i := range t.parts {
		n += t.parts[i].n
	}
	return n
}

// Lookup returns the info for a k-mer (any orientation) plus whether the
// given orientation is the canonical one.
func (t *Table) Lookup(km kmer.Kmer) (*Info, bool, bool) {
	c, ok := t.locate(km)
	return c.info, c.isSelf, ok
}

// cursor is a k-mer in a walker's orientation together with the slot
// (partition, index) and record of its canonical form.
type cursor struct {
	km        kmer.Kmer
	part, idx int
	info      *Info
	isSelf    bool // km is the canonical orientation
}

// locate finds km, in any orientation; the cursor's record is nil when the
// table does not hold it.
func (t *Table) locate(km kmer.Kmer) (cursor, bool) {
	canon, isSelf := km.Canonical(t.K)
	h := canon.HashK(t.K, 0)
	c := cursor{km: km, part: t.owner(h), isSelf: isSelf}
	p := &t.parts[c.part]
	var ok bool
	if c.idx, ok = p.find(canon.W[:t.words], uint32(h)); ok {
		c.info = &p.info[c.idx]
	}
	return c, ok
}

// find returns the slot holding key, or else the empty slot a probe from
// h's home slot reaches first. Keys are compared before records are read,
// so only the slot the probe stops on costs a second cache line.
func (p *partition) find(key []uint64, h uint32) (int, bool) {
	w := p.words
	for i := int(uint64(h) * uint64(len(p.info)) >> 32); ; {
		slot, j := p.keyAt(i), 0
		for j < w && slot[j] == key[j] {
			j++
		}
		if j == w {
			// Equal keys on an empty slot: key is all 'A' and unseen.
			return i, p.info[i].Count != 0
		}
		if slot[0] == 0 && p.info[i].Count == 0 {
			return i, false
		}
		if i++; i == len(p.info) {
			i = 0
		}
	}
}

// upsert returns key's record, first claiming a slot for it if it has
// none. A claimed record has Count 0: the caller adds at least one
// occurrence.
func (p *partition) upsert(key []uint64, h uint32) *Info {
	i, ok := p.find(key, h)
	if !ok {
		if (p.n+1)*maxLoadDen > len(p.info)*maxLoadNum {
			p.rebuild(2*len(p.info), 1)
			i, _ = p.find(key, h)
		}
		copy(p.keys[i*p.words:], key)
		p.n++
	}
	return &p.info[i]
}

// keyAt returns the key words of slot i.
func (p *partition) keyAt(i int) []uint64 { return p.keys[i*p.words:][:p.words] }

// kmerAt unpacks the key of slot i.
func (p *partition) kmerAt(i int) kmer.Kmer {
	var km kmer.Kmer
	copy(km.W[:], p.keyAt(i))
	return km
}

// rebuild moves the records with Count ≥ minCount (≥ 1: every occupied
// slot) into fresh arrays of the given capacity, which must hold them
// within the load bound.
func (p *partition) rebuild(capacity int, minCount uint32) {
	old := *p
	p.keys, p.info, p.n = make([]uint64, capacity*p.words), make([]Info, capacity), 0
	for i := range old.info {
		if old.info[i].Count >= minCount {
			key := old.keyAt(i)
			*p.upsert(key, uint32(kmer.HashWords(key, 0))) = old.info[i]
		}
	}
}

// Filter removes k-mers below MinCount, returning how many were dropped —
// the singleton-error filter of the k-mer analysis stage. Each partition
// is rebuilt from its survivors at the load bound, which is also what
// shrinks the table (four to six times on error-rich reads) before
// traversal. Partitions are rebuilt concurrently, each by one goroutine, as
// Count's drain already treats them as owned.
func (t *Table) Filter(minCount uint32) int {
	minCount = max(minCount, 1)
	before := t.Len()
	par.ForEach(len(t.parts), len(t.parts), func(i int) {
		p := &t.parts[i]
		keep := 0
		for j := range p.info {
			if p.info[j].Count >= minCount {
				keep++
			}
		}
		p.rebuild(slotsFor(keep), minCount)
	})
	return before - t.Len()
}

// startSlot is a k-mer's place in the start order: its key's first word
// and its slot, partition<<32 | index.
type startSlot struct{ w0, slot uint64 }

// startOrder returns every occupied slot in the lexicographic order of the
// k-mers they hold. Keys that share a first word (only when K > 32) are
// ordered by their other words, read from the table.
func (t *Table) startOrder() []startSlot {
	order := make([]startSlot, 0, t.Len())
	for pi := range t.parts {
		p := &t.parts[pi]
		for i := range p.info {
			if p.info[i].Count != 0 {
				order = append(order, startSlot{p.keys[i*p.words], uint64(pi)<<32 | uint64(i)})
			}
		}
	}
	key := func(s startSlot) []uint64 { return t.parts[s.slot>>32].keyAt(int(uint32(s.slot))) }
	slices.SortFunc(order, func(a, b startSlot) int {
		if a.w0 != b.w0 || t.words == 1 {
			return cmp.Compare(a.w0, b.w0)
		}
		return slices.Compare(key(a), key(b))
	})
	return order
}
