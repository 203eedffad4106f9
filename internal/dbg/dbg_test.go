package dbg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

func cfg(k int) Config { return Config{K: k, MinCount: 2} }

func randGenome(rng *rand.Rand, n int) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = dna.Alphabet[rng.Intn(4)]
	}
	return g
}

// tile returns overlapping error-free reads covering g with ~depth x.
func tile(g []byte, readLen, stride int) [][]byte {
	var reads [][]byte
	for pos := 0; pos+readLen <= len(g); pos += stride {
		reads = append(reads, g[pos:pos+readLen])
	}
	return reads
}

func TestCountBasics(t *testing.T) {
	seqs := [][]byte{[]byte("ACGTAC")}
	tab, err := Count(seqs, cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	// 3 windows: ACGT(palindrome), CGTA, GTAC; CGTA and GTAC are
	// reverse complements of TACG and GTAC... count canonical forms.
	if tab.Len() != 3 {
		t.Fatalf("got %d canonical k-mers", tab.Len())
	}
	km := mustKmer("ACGT")
	info, isSelf, ok := tab.Lookup(km)
	if !ok || !isSelf {
		t.Fatal("ACGT not found or not canonical")
	}
	if info.Count != 1 {
		t.Errorf("ACGT count %d", info.Count)
	}
}

func TestCountCanonicalMerging(t *testing.T) {
	// A sequence and its reverse complement must produce identical tables.
	g := []byte("ACGGTAACCGGTTACGTAGG")
	t1, _ := Count([][]byte{g}, cfg(5))
	t2, _ := Count([][]byte{dna.RevComp(g)}, cfg(5))
	if t1.Len() != t2.Len() {
		t.Fatalf("table sizes differ: %d vs %d", t1.Len(), t2.Len())
	}
	kmer.ForEach(g, 5, func(pos int, km kmer.Kmer) {
		i1, _, ok1 := t1.Lookup(km)
		i2, _, ok2 := t2.Lookup(km)
		if !ok1 || !ok2 {
			t.Fatalf("k-mer at %d missing", pos)
		}
		if i1.Count != i2.Count || i1.Left != i2.Left || i1.Right != i2.Right {
			t.Fatalf("k-mer at %d differs: %+v vs %+v", pos, i1, i2)
		}
	})
}

func TestCountExtensions(t *testing.T) {
	// In ACGTAA, the k-mer CGTA has left base A and right base A.
	tab, err := Count([][]byte{[]byte("ACGTAA")}, cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	km := mustKmer("CGTA")
	for _, km := range []kmer.Kmer{km, km.RevComp(4)} { // TACG has T on both sides in TTACGT
		c, ok := tab.locate(km)
		if !ok {
			t.Fatalf("%s missing", km.Bytes(4))
		}
		want := uint64(1)<<(8*dna.BaseA) | uint64(1)<<(32+8*dna.BaseA)
		if !c.isSelf {
			want = uint64(1)<<(8*dna.BaseT) | uint64(1)<<(32+8*dna.BaseT)
		}
		if e := tab.ext(c); e != want {
			t.Errorf("%s: extension bytes %#x, want %#x", km.Bytes(4), e, want)
		}
	}
}

func TestFilterSingletons(t *testing.T) {
	g := []byte("ACGGTAACCGGTTACGTAGGACGGTAACCGGTTACGTAGG"[:30])
	reads := [][]byte{g, g, []byte("TTTTTGTTTTCTTGTATTTTGTTTGTTTGG")}
	tab, _ := Count(reads, cfg(21))
	before := tab.Len()
	dropped := tab.Filter(2)
	if dropped == 0 {
		t.Fatal("expected singleton k-mers to be dropped")
	}
	if tab.Len() != before-dropped {
		t.Error("Len inconsistent after filter")
	}
	// Every survivor has count ≥ 2.
	for _, c := range tab.sorted() {
		if info, _, ok := tab.Lookup(c.km); !ok || info.Count < 2 {
			t.Fatal("singleton survived filter")
		}
	}
}

func TestContigsRecoverGenome(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGenome(rng, 400)
	reads := tile(g, 60, 7) // deep, error-free coverage
	c := cfg(21)
	tab, err := Count(reads, c)
	if err != nil {
		t.Fatal(err)
	}
	tab.Filter(2)
	ctgs := tab.Contigs(c)
	if len(ctgs) != 1 {
		t.Fatalf("got %d contigs, want 1 (unambiguous coverage)", len(ctgs))
	}
	got := ctgs[0].Seq
	want := g[:len(g)] // full reconstruction up to read-tiling edges
	// The contig may be the reverse complement and may lose a few bases at
	// the genome edges where coverage drops below MinCount.
	if string(got) > string(dna.RevComp(got)) {
		got = dna.RevComp(got)
	}
	fwd := string(want)
	rc := string(dna.RevComp(want))
	if !strings.Contains(fwd, string(got)) && !strings.Contains(rc, string(got)) {
		t.Fatal("contig is not a substring of the genome")
	}
	if len(got) < len(g)-40 {
		t.Errorf("contig too short: %d of %d", len(got), len(g))
	}
	if ctgs[0].Depth < 2 {
		t.Errorf("depth %f, want ≥ 2", ctgs[0].Depth)
	}
}

func TestContigsForkSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Shared stem followed by two divergent branches at equal depth: the
	// graph forks and traversal must stop at the junction.
	stem := randGenome(rng, 150)
	brA := append(append([]byte(nil), stem...), randGenome(rng, 120)...)
	brB := append(append([]byte(nil), stem...), randGenome(rng, 120)...)
	reads := append(tile(brA, 50, 5), tile(brB, 50, 5)...)
	c := cfg(21)
	tab, _ := Count(reads, c)
	tab.Filter(2)
	ctgs := tab.Contigs(c)
	if len(ctgs) < 2 {
		t.Fatalf("got %d contigs, want the stem and branches separated", len(ctgs))
	}
	// No contig may span the junction: stem+branch contigs would contain
	// stem suffix AND branch prefix beyond k bases.
	junction := len(stem)
	for _, ctg := range ctgs {
		s := string(ctg.Seq)
		aTail := string(brA[junction : junction+30])
		stemTail := string(stem[junction-30 : junction])
		if strings.Contains(s, stemTail+aTail) {
			t.Error("a contig walked through the fork")
		}
	}
}

func TestContigsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randGenome(rng, 300)
	reads := tile(g, 50, 6)
	c := cfg(15)
	build := func() []Contig {
		tab, _ := Count(reads, c)
		tab.Filter(2)
		return tab.Contigs(c)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("contig counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Seq, b[i].Seq) {
			t.Fatalf("contig %d differs across runs", i)
		}
	}
}

func TestContigsMinLength(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randGenome(rng, 120)
	reads := tile(g, 40, 5)
	c := cfg(21)
	c.MinCtgLen = 1000 // absurd: nothing passes
	tab, _ := Count(reads, c)
	tab.Filter(2)
	if ctgs := tab.Contigs(c); len(ctgs) != 0 {
		t.Errorf("MinCtgLen ignored: %d contigs", len(ctgs))
	}
}

func TestCountValidation(t *testing.T) {
	if _, err := Count(nil, Config{K: 2, MinCount: 2}); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := Count(nil, Config{K: 21, MinCount: 0}); err == nil {
		t.Error("MinCount=0 accepted")
	}
}

func TestUniqueExt(t *testing.T) {
	// Base b's count is byte b.
	if b, ok := uniqueExt(0x0500, 2); !ok || b != 1 {
		t.Error("unique C not detected")
	}
	if _, ok := uniqueExt(0x0503, 2); ok {
		t.Error("two viable bases treated as unique")
	}
	if _, ok := uniqueExt(0x01010101, 2); ok {
		t.Error("all-below-threshold treated as unique")
	}
	// Threshold boundary.
	if b, ok := uniqueExt(0x01020000, 2); !ok || b != 2 {
		t.Error("threshold boundary wrong")
	}
	if b, ok := uniqueExt(0xff000000, MaxExtCount); !ok || b != 3 {
		t.Error("saturated count below MaxExtCount")
	}
}

// TestWorkersConsistency: the table and the contigs read from it are the
// same at any partition count, including more workers than reads and no
// reads at all.
func TestWorkersConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randGenome(rng, 500)
	for name, reads := range map[string][][]byte{
		"tiled": tile(g, 70, 9), "three reads": tile(g, 70, 200), "empty": nil,
	} {
		c := cfg(17)
		c.Workers = 1
		t1, _ := Count(reads, c)
		for _, workers := range []int{2, 3, 5, 8} {
			c.Workers = workers
			tw, err := Count(reads, c)
			if err != nil {
				t.Fatal(err)
			}
			if t1.Len() != tw.Len() {
				t.Fatalf("%s, %d workers: %d k-mers, want %d", name, workers, tw.Len(), t1.Len())
			}
			for _, cur := range t1.sorted() {
				want, _, _ := t1.Lookup(cur.km)
				if info, _, ok := tw.Lookup(cur.km); !ok || info != want {
					t.Fatalf("%s, %d workers: table content changed", name, workers)
				}
			}
			// MinCount 1 keeps the three-read case non-trivial.
			if got, want := tw.Contigs(Config{K: 17, MinCount: 1}), t1.Contigs(Config{K: 17, MinCount: 1}); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d workers: contigs changed", name, workers)
			}
		}
	}
}

func BenchmarkCountK21(b *testing.B) { benchCount(b, 21) }

// BenchmarkCountK55 counts two-word keys, the widest of the default rounds.
func BenchmarkCountK55(b *testing.B) { benchCount(b, 55) }

func benchCount(b *testing.B, k int) {
	rng := rand.New(rand.NewSource(1))
	g := randGenome(rng, 5000)
	reads := tile(g, 150, 10)
	c := cfg(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(reads, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraverse(b *testing.B) {
	for _, k := range []int{21, 55} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := randGenome(rng, 5000)
			reads := tile(g, 150, 10)
			c := cfg(k)
			tab, _ := Count(reads, c)
			tab.Filter(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Contigs(c)
			}
		})
	}
}

// sorted returns every k-mer of the table, located, in Contigs' start order.
func (t *Table) sorted() []cursor {
	var cs []cursor
	for _, s := range t.startOrder() {
		p, i := int(s.slot>>32), int(uint32(s.slot))
		cs = append(cs, cursor{km: t.parts[p].kmerAt(i), part: p, idx: i, isSelf: true})
	}
	return cs
}

func mustKmer(s string) kmer.Kmer {
	km, _ := kmer.FromBytes([]byte(s), len(s))
	return km
}
