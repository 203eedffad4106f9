package kmer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mhm2sim/internal/dna"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = dna.Alphabet[rng.Intn(4)]
	}
	return s
}

func TestFromBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 21, 31, 32, 33, 63, 64, 65, 96, 127, 128} {
		seq := randSeq(rng, k)
		km, ok := FromBytes(seq, k)
		if !ok {
			t.Fatalf("k=%d: FromBytes failed", k)
		}
		if got := km.String(k); got != string(seq) {
			t.Errorf("k=%d: round trip %q != %q", k, got, seq)
		}
	}
}

func TestFromBytesRejects(t *testing.T) {
	if _, ok := FromBytes([]byte("ACGN"), 4); ok {
		t.Error("accepted ambiguous base")
	}
	if _, ok := FromBytes([]byte("ACG"), 4); ok {
		t.Error("accepted short sequence")
	}
	if _, ok := FromBytes(randSeq(rand.New(rand.NewSource(1)), 200), MaxK+1); ok {
		t.Error("accepted k > MaxK")
	}
	if _, ok := FromBytes([]byte("ACG"), 0); ok {
		t.Error("accepted k = 0")
	}
}

func TestAppendMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{2, 21, 32, 33, 64, 65, 128} {
		seq := randSeq(rng, k+40)
		km, _ := FromBytes(seq, k)
		for i := k; i < len(seq); i++ {
			c, _ := dna.Code(seq[i])
			km = km.Append(k, c)
			want := string(seq[i-k+1 : i+1])
			if got := km.String(k); got != want {
				t.Fatalf("k=%d step %d: %q != %q", k, i, got, want)
			}
		}
	}
}

func TestPrependMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{2, 21, 33, 64, 96} {
		seq := randSeq(rng, k+20)
		km, _ := FromBytes(seq[20:], k)
		for i := 19; i >= 0; i-- {
			c, _ := dna.Code(seq[i])
			km = km.Prepend(k, c)
			want := string(seq[i : i+k])
			if got := km.String(k); got != want {
				t.Fatalf("k=%d step %d: %q != %q", k, i, got, want)
			}
		}
	}
}

func TestRevCompMatchesDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 21, 32, 55, 99, 128} {
		seq := randSeq(rng, k)
		km, _ := FromBytes(seq, k)
		want := string(dna.RevComp(seq))
		if got := km.RevComp(k).String(k); got != want {
			t.Errorf("k=%d: revcomp %q != %q", k, got, want)
		}
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		k := len(raw)
		if k > MaxK {
			k = MaxK
		}
		seq := make([]byte, k)
		for i := range seq {
			seq[i] = dna.Alphabet[raw[i]%4]
		}
		km, _ := FromBytes(seq, k)
		return km.RevComp(k).RevComp(k) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLessMatchesLexicographic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(MaxK)
		a, b := randSeq(rng, k), randSeq(rng, k)
		ka, _ := FromBytes(a, k)
		kb, _ := FromBytes(b, k)
		want := string(a) < string(b)
		last, _ := lastSlot(k)
		if got := ka.less(&kb, last); got != want {
			t.Fatalf("k=%d: less(%q,%q)=%v want %v", k, a, b, got, want)
		}
	}
}

func TestCanonicalProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(64)
		seq := randSeq(rng, k)
		km, _ := FromBytes(seq, k)
		canon, isSelf := km.Canonical(k)
		rcCanon, _ := km.RevComp(k).Canonical(k)
		if canon != rcCanon {
			t.Fatalf("k=%d %q: canonical not invariant under revcomp", k, seq)
		}
		if isSelf && canon != km {
			t.Fatalf("isSelf=true but canon differs")
		}
		if rc := canon.RevComp(k); slices.Compare(rc.W[:], canon.W[:]) < 0 {
			t.Fatalf("canonical form is not minimal")
		}
	}
}

func TestHashEqualityAndSpread(t *testing.T) {
	a := mustFromString("ACGTACGTACGTACGTACGTA")
	b := mustFromString("ACGTACGTACGTACGTACGTA")
	if a.Hash(1) != b.Hash(1) {
		t.Error("equal k-mers hash differently")
	}
	c := mustFromString("ACGTACGTACGTACGTACGTC")
	if a.Hash(1) == c.Hash(1) {
		t.Error("suspicious collision between distinct k-mers")
	}
	if a.Hash(1) == a.Hash(2) {
		t.Error("seed ignored")
	}
}

// TestHashKProperties: HashK agrees with building the k-mer fresh (history
// independence: the tail stays zero), distinguishes distinct k-mers, and only
// mixes the words a klen actually covers — so two k-mers differing beyond
// klen hash equally at klen.
func TestHashKProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, klen := range []int{4, 21, 32, 33, 63, 64, 65, 127, 128} {
		s := randSeq(rng, klen)
		a, _ := FromBytes(s, klen)

		// Same k-mer arrived at by rolling: identical hash.
		rolled := Kmer{}
		for _, b := range s {
			c, _ := dna.Code(b)
			rolled = rolled.Append(klen, c)
		}
		if rolled.HashK(klen, 7) != a.HashK(klen, 7) {
			t.Errorf("klen=%d: rolled k-mer hashes differently", klen)
		}

		s2 := append([]byte(nil), s...)
		s2[klen-1] = dna.Alphabet[(s2[klen-1]-'A'+1)%4] // any different base
		b2, ok := FromBytes(s2, klen)
		if ok && a.HashK(klen, 7) == b2.HashK(klen, 7) {
			t.Errorf("klen=%d: suspicious collision", klen)
		}
		if a.HashK(klen, 7) == a.HashK(klen, 8) {
			t.Errorf("klen=%d: seed ignored", klen)
		}
	}

	// klen ≤ 64 must ignore the upper words entirely.
	var x, y Kmer
	x.W[2], y.W[2] = 0xdead, 0xbeef
	if x.HashK(64, 1) != y.HashK(64, 1) {
		t.Error("HashK(64) mixed words beyond the covered pair")
	}
}

func TestForEachWindows(t *testing.T) {
	seq := []byte("ACGTACGTAC")
	k := 4
	var got []string
	ForEach(seq, k, func(pos int, km Kmer) {
		if want := string(seq[pos : pos+k]); km.String(k) != want {
			t.Fatalf("pos %d: %q != %q", pos, km.String(k), want)
		}
		got = append(got, km.String(k))
	})
	if len(got) != len(seq)-k+1 {
		t.Fatalf("got %d windows, want %d", len(got), len(seq)-k+1)
	}
}

func TestForEachSkipsAmbiguous(t *testing.T) {
	seq := []byte("ACGTNACGTA")
	var got []string
	ForEach(seq, 4, func(pos int, km Kmer) {
		got = append(got, km.String(4))
	})
	want := []string{"ACGT", "ACGT", "CGTA"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v want %v", got, want)
	}
	if count(seq, 4) != 3 {
		t.Errorf("Count = %d, want 3", count(seq, 4))
	}
}

func TestForEachShortInput(t *testing.T) {
	if count([]byte("ACG"), 4) != 0 {
		t.Error("short input should yield no windows")
	}
	if count(nil, 4) != 0 {
		t.Error("nil input should yield no windows")
	}
}

func TestClearTailIsolation(t *testing.T) {
	// Two k-mers with the same klen prefix but built through different
	// histories must be equal.
	long := mustFromString("ACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	k := 8
	var a Kmer
	for i := 0; i < k; i++ {
		a = a.Append(k, long.Get(i))
	}
	b, _ := FromBytes([]byte("ACGTACGT"), k)
	if a != b {
		t.Errorf("histories leak into representation: %q vs %q", a.String(k), b.String(k))
	}
}

func BenchmarkAppendK21(b *testing.B) {
	km := mustFromString("ACGTACGTACGTACGTACGTA")
	for i := 0; i < b.N; i++ {
		km = km.Append(21, byte(i)&3)
	}
}

func BenchmarkForEachK21Read150(b *testing.B) {
	seq := randSeq(rand.New(rand.NewSource(9)), 150)
	b.SetBytes(150)
	for i := 0; i < b.N; i++ {
		ForEach(seq, 21, func(int, Kmer) {})
	}
}

func BenchmarkHash(b *testing.B) {
	km := mustFromString("ACGTACGTACGTACGTACGTA")
	for i := 0; i < b.N; i++ {
		_ = km.Hash(uint64(i))
	}
}

// mustFromString packs a k-mer literal.
func mustFromString(s string) Kmer {
	km, ok := FromBytes([]byte(s), len(s))
	if !ok {
		panic("invalid k-mer " + s)
	}
	return km
}

// count returns the number of valid k-mer windows ForEach visits in seq.
func count(seq []byte, k int) int {
	n := 0
	ForEach(seq, k, func(int, Kmer) { n++ })
	return n
}

// Prepend drops the last base and prepends code c at position 0, the
// leftward mirror of Append: the step Scanner takes on its reverse
// complement (prependAt), as a value method the tests can call.
func (k Kmer) Prepend(klen int, c byte) Kmer {
	last, sh := lastSlot(klen)
	k.prependAt(last, sh, c)
	k.zeroFrom(last + 1)
	return k
}

// String unpacks the k-mer into an ASCII string.
func (k Kmer) String(klen int) string { return string(k.Bytes(klen)) }
