package dbg

import (
	"cmp"
	"encoding/binary"
	"math/bits"
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
// hash table over the packed words that cover K, with each k-mer's record
// stored beside its key. It is split into partitions by the high half of
// HashK(K, 0) — one per counting worker, each written by that worker alone
// — and the low half picks the home slot inside the partition (both by
// multiply-shift, so neither size has to be a power of two).
type Table struct {
	K     int
	words int // uint64 words of a key: those covering K bases
	parts []partition
}

// A partition is one array of slots, stride = words+2 uint64s each: the key
// words, then the record — the count, and a byte per extension count
// (Left's bases in bytes 0–3, Right's in 4–7). An empty slot is all zero;
// its count tells it from the all-'A' k-mer, whose key is also all zero.
type partition struct {
	words, stride int
	slots         []uint64
	size          int // slots
	n             int // occupied slots
}

// slotsFor returns the capacity that holds n k-mers at the load bound, with
// the empty slot every probe needs to terminate.
func slotsFor(n int) int { return n*maxLoadDen/maxLoadNum + 1 }

// newTable returns an empty table with room for about distinct k-mers. Its
// partition i reuses free[i] when that array is large enough.
func newTable(k, parts, distinct int, free [][]uint64) *Table {
	t := &Table{K: k, words: (k + 31) / 32, parts: make([]partition, parts)}
	for i := range t.parts {
		p := &t.parts[i]
		*p = partition{words: t.words, stride: t.words + 2}
		if i < len(free) {
			p.slots = free[i][:0]
		}
		p.rebuild(slotsFor(distinct/parts), 0, 1)
	}
	return t
}

// NewTable returns an empty table for about distinct k-mers that are counted
// elsewhere: the GPU budget counter reads its device entries back with Add,
// so traversal sees one table however it was counted.
func NewTable(k, distinct int) *Table { return newTable(k, 1, distinct, nil) }

// Add sums info into the record of a canonical k-mer, extension counts
// saturating at MaxExtCount. Not for concurrent use.
func (t *Table) Add(canon kmer.Kmer, info Info) {
	if info.Count == 0 {
		return
	}
	h := canon.HashK(t.K, 0)
	rec := t.parts[t.owner(h)].upsert(canon.W[:t.words], uint32(h))
	rec[0] += uint64(info.Count)
	rec[1] = addExt(rec[1], uint64(binary.LittleEndian.Uint32(info.Left[:]))|uint64(binary.LittleEndian.Uint32(info.Right[:]))<<32)
}

// addExt adds extension words byte by byte, saturating at MaxExtCount: the
// low seven bits of each byte add apart, bit 7 and the carry out of it
// follow from the operands' bit 7 and that sum, and a carry sets 0xff.
func addExt(a, b uint64) uint64 {
	const hi = 0x8080808080808080
	s := a&^hi + b&^hi
	carry := (a&b | (a|b)&s) & hi
	return s ^ (a^b)&hi | carry>>7*0xff
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

// Lookup returns the info for a k-mer (any orientation; zero when absent)
// plus whether the given orientation is the canonical one.
func (t *Table) Lookup(km kmer.Kmer) (Info, bool, bool) {
	c, ok := t.locate(km) // an absent k-mer's slot is the empty one its probe stopped on
	p := &t.parts[c.part]
	rec := p.slot(c.idx)[p.words:]
	info := Info{Count: uint32(rec[0])}
	binary.LittleEndian.PutUint32(info.Left[:], uint32(rec[1]))
	binary.LittleEndian.PutUint32(info.Right[:], uint32(rec[1]>>32))
	return info, c.isSelf, ok
}

// cursor is a k-mer in a walker's orientation together with the slot
// (partition, index) of its canonical form.
type cursor struct {
	km        kmer.Kmer
	part, idx int
	isSelf    bool // km is the canonical orientation
}

// locate finds km, in any orientation.
func (t *Table) locate(km kmer.Kmer) (cursor, bool) {
	canon, isSelf := km.Canonical(t.K)
	h := canon.HashK(t.K, 0)
	c := cursor{km: km, part: t.owner(h), isSelf: isSelf}
	var ok bool
	c.idx, ok = t.parts[c.part].find(canon.W[:t.words], uint32(h))
	return c, ok
}

// ext returns the extension counts of the cursor's k-mer in the walker's
// orientation: base b's before it in byte b, after it in byte 4+b.
// Reversing the bytes of the canonical record swaps the sides and
// complements the bases (A<->T, C<->G).
func (t *Table) ext(c cursor) uint64 {
	p := &t.parts[c.part]
	e := p.slot(c.idx)[p.words+1]
	if !c.isSelf {
		e = bits.ReverseBytes64(e)
	}
	return e
}

// find returns the slot holding key, or else the empty slot a probe from
// h's home slot reaches first. A slot's count sits right after its key
// words, so a probe reads both from one cache line.
func (p *partition) find(key []uint64, h uint32) (int, bool) {
	w := p.words
	for i := int(uint64(h) * uint64(p.size) >> 32); ; {
		slot, j := p.slot(i), 0
		for j < w && slot[j] == key[j] {
			j++
		}
		if j == w || slot[w] == 0 { // an empty slot matches only an all-'A' key
			return i, slot[w] != 0
		}
		if i++; i == p.size {
			i = 0
		}
	}
}

// upsert returns key's record, first claiming a slot for it if it has
// none. A claimed record is zero: the caller adds at least one occurrence.
func (p *partition) upsert(key []uint64, h uint32) []uint64 {
	i, ok := p.find(key, h)
	if !ok && (p.n+1)*maxLoadDen > p.size*maxLoadNum {
		p.rebuild(2*p.size, p.n, 1)
		i, _ = p.find(key, h)
	}
	s := p.slot(i)
	if !ok {
		copy(s, key)
		p.n++
	}
	return s[p.words:]
}

// slot returns the words of slot i: its key, then its record.
func (p *partition) slot(i int) []uint64 { return p.slots[i*p.stride:][:p.stride] }

// keyAt returns the key words of slot i.
func (p *partition) keyAt(i int) []uint64 { return p.slot(i)[:p.words] }

// count returns the count of slot i, 0 when it is empty.
func (p *partition) count(i int) uint64 { return p.slot(i)[p.words] }

// kmerAt unpacks the key of slot i.
func (p *partition) kmerAt(i int) kmer.Kmer {
	var km kmer.Kmer
	copy(km.W[:], p.keyAt(i))
	return km
}

// rebuild moves the keep records with count ≥ minCount (≥ 1: every
// occupied slot) into size slots, which must hold them within the load
// bound. The partition keeps its array when it has room for the size slots
// and, past them, the survivors: they are packed at its end, walking
// backward so no slot is overwritten before it is read, and reinserted from
// there into the cleared front. Otherwise the slots are a fresh array.
func (p *partition) rebuild(size, keep int, minCount uint32) {
	st, old := p.stride, p.slots
	if all := old[:cap(old)]; (size+keep)*st <= len(all) {
		end := len(all)
		for i := len(old) - st; i >= 0; i -= st {
			if old[i+p.words] >= uint64(minCount) {
				end -= st
				copy(all[end:], old[i:i+st])
			}
		}
		old, p.slots = all[end:], all[:size*st]
		clear(p.slots)
	} else {
		p.slots = make([]uint64, size*st)
	}
	p.size, p.n = size, 0
	for s := old; len(s) > 0; s = s[st:] {
		if s[p.words] >= uint64(minCount) {
			key := s[:p.words]
			rec := p.upsert(key, uint32(kmer.HashWords(key, 0)))
			rec[0], rec[1] = s[p.words], s[p.words+1]
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
		for s := p.slots; len(s) > 0; s = s[p.stride:] {
			if s[p.words] >= uint64(minCount) {
				keep++
			}
		}
		p.rebuild(slotsFor(keep), keep, minCount)
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
		for i := range p.size {
			if p.count(i) != 0 {
				order = append(order, startSlot{p.keyAt(i)[0], uint64(pi)<<32 | uint64(i)})
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
