// Package kmer implements fixed-capacity packed k-mers for k ≤ 128, the
// unit of work for k-mer analysis, de Bruijn graph construction, and the
// local-assembly hash tables.
//
// A Kmer packs bases two bits each into four uint64 words, ordered so that
// numeric word comparison equals lexicographic base comparison (base 0 sits
// in the top bits of word 0). That makes canonicalization — picking the
// lexicographically smaller of a k-mer and its reverse complement — a plain
// word compare.
package kmer

import (
	"fmt"
	"math/bits"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/murmur"
)

// MaxK is the largest supported k-mer length.
const MaxK = 128

// Words is the number of uint64 words backing a Kmer.
const Words = MaxK / 32

// Kmer is a packed DNA string of up to MaxK bases. The zero Kmer is the
// all-'A' string (of whatever length the caller tracks); lengths are carried
// alongside k-mers, not inside them, since every container in the assembler
// holds k-mers of a single length.
type Kmer struct {
	W [Words]uint64
}

// Get returns the 2-bit code of base i.
func (k Kmer) Get(i int) byte {
	return byte(k.W[i>>5]>>(62-2*(uint(i)&31))) & 3
}

// set stores the 2-bit code c at base i (no bounds checks beyond the array).
func (k *Kmer) set(i int, c byte) {
	sh := 62 - 2*(uint(i)&31)
	w := &k.W[i>>5]
	*w = *w&^(3<<sh) | uint64(c)<<sh
}

// FromBytes packs the first k bases of seq. It reports ok=false if seq is
// shorter than k or contains an ambiguous base in the window.
func FromBytes(seq []byte, k int) (Kmer, bool) {
	var km Kmer
	if k < 1 || k > MaxK || len(seq) < k {
		return km, false
	}
	for i := 0; i < k; i++ {
		c, valid := dna.Code(seq[i])
		if !valid {
			return Kmer{}, false
		}
		km.set(i, c)
	}
	return km, true
}

// Bytes unpacks the k-mer into ASCII bases.
func (k Kmer) Bytes(klen int) []byte {
	out := make([]byte, klen)
	for i := 0; i < klen; i++ {
		out[i] = dna.Alphabet[k.Get(i)]
	}
	return out
}

// lastSlot locates base klen-1: the index of the last word covering klen
// bases and the bit offset of that base inside it. Every bit of that word
// below the offset is tail, kept zero so that equality and comparison are
// well defined.
func lastSlot(klen int) (word int, shift uint) {
	return (klen - 1) >> 5, 62 - 2*(uint(klen-1)&31)
}

// appendAt shifts the words covering a k-mer (through index last) up one
// base in place and stores code c at the last base's offset sh.
func (k *Kmer) appendAt(last int, sh uint, c byte) {
	for j := 0; j < last; j++ {
		k.W[j] = k.W[j]<<2 | k.W[j+1]>>62
	}
	k.W[last] = k.W[last]<<2&(^uint64(0)<<(sh+2)) | uint64(c)<<sh
}

// prependAt is the mirror of appendAt: one base down, c at base 0, and the
// base that fell off the end cleared.
func (k *Kmer) prependAt(last int, sh uint, c byte) {
	for j := last; j > 0; j-- {
		k.W[j] = k.W[j]>>2 | k.W[j-1]<<62
	}
	k.W[0] = k.W[0]>>2 | uint64(c)<<62
	k.W[last] &= ^uint64(0) << sh
}

// zeroFrom clears the words a klen-base k-mer does not cover.
func (k *Kmer) zeroFrom(word int) {
	for ; word < Words; word++ {
		k.W[word] = 0
	}
}

// Append drops the first base and appends code c at position klen-1,
// producing the next k-mer of a rightward walk. Only the words covering
// klen bases are shifted.
func (k Kmer) Append(klen int, c byte) Kmer {
	last, sh := lastSlot(klen)
	k.appendAt(last, sh, c)
	k.zeroFrom(last + 1)
	return k
}

// revComp32 reverses the 32 two-bit groups of w and complements each
// (complement is XOR 3: A<->T, C<->G).
func revComp32(w uint64) uint64 {
	w = bits.ReverseBytes64(w)
	w = w&0x0f0f0f0f0f0f0f0f<<4 | w>>4&0x0f0f0f0f0f0f0f0f
	w = w&0x3333333333333333<<2 | w>>2&0x3333333333333333
	return ^w
}

// RevComp returns the reverse complement at length klen, a word at a time:
// reversing the covering words and the groups inside each leaves the result
// right-aligned in them, so it is shifted up by the width of the tail
// (which also pushes the complemented tail bits out).
func (k Kmer) RevComp(klen int) Kmer {
	last, sh := lastSlot(klen)
	var out Kmer
	for j := 0; j <= last; j++ {
		r := revComp32(k.W[last-j])
		out.W[j] = r << sh
		if j > 0 {
			out.W[j-1] |= r >> (64 - sh)
		}
	}
	return out
}

// Less reports lexicographic order (valid because of the packing layout).
func (k Kmer) Less(o Kmer) bool {
	for j := 0; j < Words; j++ {
		if k.W[j] != o.W[j] {
			return k.W[j] < o.W[j]
		}
	}
	return false
}

// Canonical returns the lexicographically smaller of k and its reverse
// complement, plus whether k itself was already canonical.
func (k Kmer) Canonical(klen int) (Kmer, bool) {
	rc := k.RevComp(klen)
	if rc.Less(k) {
		return rc, false
	}
	return k, true
}

// Hash returns the MurmurHash2 of the packed representation. Only the words
// covering klen bases participate, so equal k-mers hash equally regardless
// of history.
func (k Kmer) Hash(seed uint64) uint64 {
	h := seed
	for j := 0; j < Words; j += 2 {
		h = murmur.Hash64Word(k.W[j], k.W[j+1], h)
	}
	return h
}

// HashK hashes only the word pairs covering klen bases, skipping the zeroed
// tail words that Hash would mix in. For klen ≤ 64 that is a single
// Hash64Word call, which is what makes it the hash of choice for hot
// fixed-length probe loops (the host visited set hashes every walk cursor
// through here). Two k-mers of the same klen hash equally iff their packed
// prefixes are equal; hashes are only comparable at equal klen.
func (k Kmer) HashK(klen int, seed uint64) uint64 {
	h := seed
	pairs := (klen + 63) / 64 // word pairs covering klen 2-bit bases
	for j := 0; j < 2*pairs; j += 2 {
		h = murmur.Hash64Word(k.W[j], k.W[j+1], h)
	}
	return h
}

// Scanner is the one rolling k-mer iterator: fed a sequence a base at a
// time, it keeps the forward k-mer and its reverse complement in lock-step
// (append on one, prepend of the complement on the other), so the canonical
// form of every window costs a word compare, never a RevComp. It is a plain
// value: no allocation, nothing to release.
type Scanner struct {
	k, run  int // run: unambiguous bases ending at the last Push, capped at k
	last    int // lastSlot(k)
	sh      uint
	fwd, rc Kmer
}

// NewScanner returns a scanner for windows of k bases, 1 ≤ k ≤ MaxK. The
// panic is a caller's bug, never an input's: pipeline.Config.Validate holds a
// run's rounds to [4, MaxK] (dbg and gpucount check again before scanning),
// and the other callers pass a validated seed length and a constant.
func NewScanner(k int) Scanner {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("kmer: scanner k %d outside [1,%d]", k, MaxK))
	}
	last, sh := lastSlot(k)
	return Scanner{k: k, last: last, sh: sh}
}

// Push feeds the next base of the sequence and reports whether the k bases
// ending at it form a valid window (all unambiguous). An ambiguous base
// restarts the run; the k valid bases that must follow it overwrite every
// base the k-mers held.
func (s *Scanner) Push(b byte) bool {
	c, ok := dna.Code(b)
	if !ok {
		s.run = 0
		return false
	}
	s.fwd.appendAt(s.last, s.sh, c)
	s.rc.prependAt(s.last, s.sh, c^3)
	if s.run < s.k {
		s.run++
	}
	return s.run == s.k
}

// Forward returns the window as read. Like Canonical it is meaningful only
// after a Push that returned true.
func (s *Scanner) Forward() Kmer { return s.fwd }

// Reverse returns the window's reverse complement, the window at len−k−pos of the sequence's.
func (s *Scanner) Reverse() Kmer { return s.rc }

// Canonical returns the lexicographically smaller of the window and its
// reverse complement, plus whether the window as read was that one.
func (s *Scanner) Canonical() (Kmer, bool) {
	if s.rc.Less(s.fwd) {
		return s.rc, false
	}
	return s.fwd, true
}

// ForEach calls fn for every valid k-mer window of seq, skipping windows
// that contain ambiguous bases. pos is the window's start offset in seq.
func ForEach(seq []byte, k int, fn func(pos int, km Kmer)) {
	if k < 1 || k > MaxK {
		return
	}
	s := NewScanner(k)
	for i, b := range seq {
		if s.Push(b) {
			fn(i-k+1, s.Forward())
		}
	}
}

// Windows returns the number of k-base windows in seqs, ambiguous ones
// included: the upper bound on k-mer occurrences that counting structures
// are sized from.
func Windows(seqs [][]byte, k int) int {
	n := 0
	for _, s := range seqs {
		if len(s) >= k {
			n += len(s) - k + 1
		}
	}
	return n
}
