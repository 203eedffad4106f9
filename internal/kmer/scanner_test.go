package kmer

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mhm2sim/internal/dna"
)

// refRevComp is the per-base reverse complement the word-parallel RevComp
// replaced, kept as the oracle: k Get/set pairs.
func refRevComp(km Kmer, klen int) Kmer {
	var out Kmer
	for i := 0; i < klen; i++ {
		out.set(klen-1-i, km.Get(i)^3)
	}
	return out
}

// refWindow is the per-position extraction the scanner replaced: pack the
// window from bytes, reverse-complement it base by base, compare.
func refWindow(seq []byte, pos, k int) (canon Kmer, isSelf, valid bool) {
	km, ok := FromBytes(seq[pos:], k)
	if !ok {
		return Kmer{}, false, false
	}
	if rc := refRevComp(km, k); slices.Compare(rc.W[:], km.W[:]) < 0 {
		return rc, false, true
	}
	return km, true, true
}

// checkScanner feeds seq through a Scanner and asserts that at every
// position its validity, canonical k-mer, orientation and hash equal the
// per-window oracle's, and its two strands the windows of seq and of its
// reverse complement.
func checkScanner(t *testing.T, seq []byte, k int) {
	t.Helper()
	s := NewScanner(k)
	rc := dna.RevComp(seq)
	for i, b := range seq {
		valid := s.Push(b)
		pos := i - k + 1
		if pos < 0 {
			if valid {
				t.Fatalf("k=%d: window reported valid after %d bases", k, i+1)
			}
			continue
		}
		wantCanon, wantSelf, wantValid := refWindow(seq, pos, k)
		if valid != wantValid {
			t.Fatalf("k=%d pos %d of %q: valid=%v, oracle %v", k, pos, seq, valid, wantValid)
		}
		if !valid {
			continue
		}
		canonPtr, isSelf := s.Canonical()
		canon := *canonPtr
		if canon != wantCanon || isSelf != wantSelf {
			t.Fatalf("k=%d pos %d of %q: canonical %s (self=%v), oracle %s (self=%v)",
				k, pos, seq, canon.String(k), isSelf, wantCanon.String(k), wantSelf)
		}
		if got, want := canon.HashK(k, 0xc0117e8), wantCanon.HashK(k, 0xc0117e8); got != want {
			t.Fatalf("k=%d pos %d: HashK %#x, oracle %#x", k, pos, got, want)
		}
		if fwd, _ := FromBytes(seq[pos:], k); s.Forward() != fwd {
			t.Fatalf("k=%d pos %d: forward %s, oracle %s", k, pos, s.Forward().String(k), fwd.String(k))
		}
		if rev, _ := FromBytes(rc[len(seq)-k-pos:], k); s.Reverse() != rev {
			t.Fatalf("k=%d pos %d: reverse %s, oracle %s", k, pos, s.Reverse().String(k), rev.String(k))
		}
	}
}

var scannerKs = []int{1, 21, 31, 32, 33, 55, 64, 65, 96, 97, 127, 128}

// scannerSeeds is the fuzz seed corpus: plain reads, reads shorter than k,
// ambiguous, lowercase and non-DNA bytes, homopolymers, and windows equal to
// their own reverse complement.
func scannerSeeds() [][]byte {
	rng := rand.New(rand.NewSource(21))
	long := randSeq(rng, 300)
	mixed := randSeq(rng, 300)
	mixed[0], mixed[70], mixed[71], mixed[299] = 'N', 'n', '-', 0
	for i := 100; i < 180; i++ {
		mixed[i] |= 0x20
	}
	palin := randSeq(rng, 64)
	palin = append(palin, dna.RevComp(palin)...) // every centred even window is its own rc
	return [][]byte{
		long, mixed, palin,
		bytes.Repeat([]byte("A"), 200),
		bytes.Repeat([]byte("T"), 200),
		bytes.Repeat([]byte("AT"), 100),
		bytes.Repeat([]byte("ACGT"), 40),
		[]byte("ACGTN"), []byte("N"), []byte("acgtacgtacgtacgtacgtacgt"), {},
	}
}

func TestScannerMatchesReference(t *testing.T) {
	for _, seq := range scannerSeeds() {
		for _, k := range scannerKs {
			checkScanner(t, seq, k)
		}
	}
}

func FuzzScannerMatchesReference(f *testing.F) {
	for _, seq := range scannerSeeds() {
		for _, k := range scannerKs {
			f.Add(seq, k)
		}
	}
	f.Fuzz(func(t *testing.T, seq []byte, k int) {
		if k < 1 || k > MaxK {
			t.Skip()
		}
		// Fuzzed bytes are rarely DNA; fold most of them onto the alphabet
		// so that runs of k valid bases occur, and keep some as they are.
		folded := make([]byte, len(seq))
		for i, b := range seq {
			if b&0xc0 == 0xc0 {
				folded[i] = b
			} else {
				folded[i] = dna.Alphabet[b&3] | b&0x20
			}
		}
		checkScanner(t, folded, k)
	})
}

// TestRevCompMatchesPerBase: the word-parallel RevComp equals the per-base
// one for every k, including on k-mers whose tail bits are not clean.
func TestRevCompMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for k := 1; k <= MaxK; k++ {
		for trial := 0; trial < 20; trial++ {
			km, _ := FromBytes(randSeq(rng, k), k)
			if got, want := km.RevComp(k), refRevComp(km, k); got != want {
				t.Fatalf("k=%d %s: RevComp %s, per-base %s", k, km.String(k), got.String(k), want.String(k))
			}
			dirty := Kmer{W: [Words]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}}
			if got, want := dirty.RevComp(k), refRevComp(dirty, k); got != want {
				t.Fatalf("k=%d dirty tail: RevComp %v, per-base %v", k, got, want)
			}
		}
	}
}

// TestAppendPrependTouchOnlyCoveringWords: rolling at klen neither reads
// nor leaves anything beyond the words covering klen, whatever the input
// held there.
func TestAppendPrependTouchOnlyCoveringWords(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for k := 1; k <= MaxK; k++ {
		seq := randSeq(rng, k+1)
		clean, _ := FromBytes(seq, k)
		dirty := clean
		if k < MaxK {
			dirty.set(k, 3) // one base past the end
		}
		for j := (k + 31) / 32; j < Words; j++ {
			dirty.W[j] = rng.Uint64()
		}
		c, _ := dna.Code(seq[k])
		wantA, _ := FromBytes(seq[1:], k)
		if got := dirty.Append(k, c); got != wantA {
			t.Fatalf("k=%d: Append on a dirty tail gave %v, want %v", k, got, wantA)
		}
		if got := clean.Append(k, c); got != wantA {
			t.Fatalf("k=%d: Append gave %s, want %s", k, got.String(k), wantA.String(k))
		}
		wantP, _ := FromBytes(append([]byte{seq[k]}, seq[:k-1]...), k)
		if got := clean.Prepend(k, c); got != wantP {
			t.Fatalf("k=%d: Prepend gave %s, want %s", k, got.String(k), wantP.String(k))
		}
		if got := dirty.Prepend(k, c); got != wantP {
			t.Fatalf("k=%d: Prepend on a dirty tail gave %v, want %v", k, got, wantP)
		}
	}
}

func BenchmarkScannerCanonicalK21(b *testing.B) { benchScanner(b, 21) }
func BenchmarkScannerCanonicalK55(b *testing.B) { benchScanner(b, 55) }

var sinkWord uint64

func benchScanner(b *testing.B, k int) {
	seq := randSeq(rand.New(rand.NewSource(9)), 150)
	b.SetBytes(150)
	for i := 0; i < b.N; i++ {
		s := NewScanner(k)
		for _, c := range seq {
			if s.Push(c) {
				canon, _ := s.Canonical()
				sinkWord += canon.W[0]
			}
		}
	}
}

func BenchmarkRevCompK55(b *testing.B) {
	km, _ := FromBytes(randSeq(rand.New(rand.NewSource(9)), 55), 55)
	for i := 0; i < b.N; i++ {
		km = km.RevComp(55)
	}
	sinkWord += km.W[0]
}
