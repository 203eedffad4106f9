package dbg

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

// fuzzReads draws reads from a small random genome (so k-mers repeat and
// walks go somewhere), with ambiguous bases at a rate of ambig/512, some
// reads reverse-complemented, and a poly-A read: the all-zero key an empty
// slot also holds.
func fuzzReads(rng *rand.Rand, genomeLen, nReads, readLen, ambig int) [][]byte {
	g := randGenome(rng, genomeLen+readLen)
	reads := [][]byte{bytes.Repeat([]byte("A"), readLen), bytes.Repeat([]byte("A"), readLen)}
	for i := 0; i < nReads; i++ {
		pos := rng.Intn(genomeLen + 1)
		r := append([]byte(nil), g[pos:pos+readLen]...)
		if rng.Intn(2) == 0 {
			r = dna.RevComp(r)
		}
		for j := range r {
			if rng.Intn(512) < ambig {
				r[j] = 'N'
			}
		}
		reads = append(reads, r)
	}
	return reads
}

// checkTableMatchesMapRef counts, filters and traverses reads with the flat
// table and with the map reference, and requires the same table and the
// same contigs.
func checkTableMatchesMapRef(t *testing.T, reads [][]byte, k int, minCount uint32, workers int) {
	t.Helper()
	c := Config{K: k, MinCount: minCount, Workers: workers}
	tab, err := Count(reads, c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCount(reads, c)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered := ref.sortedKmers()
	if got, want := tab.Filter(minCount), ref.Filter(minCount); got != want {
		t.Fatalf("k=%d workers=%d: Filter dropped %d, reference %d", k, workers, got, want)
	}
	if tab.Len() != ref.Len() {
		t.Fatalf("k=%d workers=%d: %d k-mers, reference %d", k, workers, tab.Len(), ref.Len())
	}
	for _, canon := range unfiltered {
		for _, km := range []kmer.Kmer{canon, canon.RevComp(k)} {
			info, isSelf, ok := tab.Lookup(km)
			want, wantSelf, wantOK := ref.Lookup(km)
			if ok != wantOK || isSelf != wantSelf || (ok && info != want.saturated()) {
				t.Fatalf("k=%d workers=%d %s: got %+v self=%v ok=%v, reference %+v self=%v ok=%v",
					k, workers, string(km.Bytes(k)), info, isSelf, ok, want, wantSelf, wantOK)
			}
		}
	}
	if got, want := tab.Contigs(c), ref.Contigs(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d workers=%d minCount=%d: contigs differ from the reference:\n got %d %v\nwant %d %v",
			k, workers, minCount, len(got), got, len(want), want)
	}
}

// FuzzTableMatchesMapRef differentially checks the owner-partitioned flat
// table against the map implementation it replaced (mapref_test.go).
// Its seeds select each k of ks once: one to four key words, both sides of
// every word boundary. The last drawn read is repeated `repeat` more times
// (below 512); the last seed repeats it 300 times, past where extension
// counts saturate.
func FuzzTableMatchesMapRef(f *testing.F) {
	ks := []int{4, 21, 32, 33, 55, 64, 65, 96, 97, 128}
	for seed := range ks {
		f.Add(int64(seed), uint8(seed), uint8(seed), uint8(seed), uint16(300), uint8(40), uint8(seed*3), uint16(0))
	}
	f.Add(int64(len(ks)), uint8(1), uint8(1), uint8(2), uint16(300), uint8(40), uint8(3), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, kSel, minSel, workerSel uint8, genomeLen uint16, nReads, ambig uint8, repeat uint16) {
		k := ks[int(kSel)%len(ks)]
		minCount := uint32(minSel%3) + 1
		workers := []int{1, 2, 3, 8}[workerSel%4]
		rng := rand.New(rand.NewSource(seed))
		reads := fuzzReads(rng, int(genomeLen%2048), int(nReads), k+rng.Intn(2*k), int(ambig%32))
		for range repeat % 512 {
			reads = append(reads, reads[len(reads)-1])
		}
		checkTableMatchesMapRef(t, reads, k, minCount, workers)
	})
}

// TestExtCountsSaturate counts a k-mer 302 times, followed 300 times by
// one base and twice by another: Lookup reports the first at MaxExtCount
// and the second exactly, and contigs at MinCount 2 (the fork stops the
// walk) and 255 (the twofold base is below the bar, so the walk goes on)
// match the exact-count reference. The byte-wise saturating add that
// counting and Add share is checked against min(a+b, 255) per byte.
func TestExtCountsSaturate(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(41))
	g := randGenome(rng, 120)
	base, _ := dna.Code(g[60])
	other := (base + 1) % 4
	alt := append(append(g[:60:60], dna.Alphabet[other]), randGenome(rng, 30)...)
	var reads [][]byte
	for range 300 {
		reads = append(reads, g)
	}
	reads = append(reads, alt, alt)
	tab, err := Count(reads, Config{K: k, MinCount: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fork := mustKmer(string(g[60-k : 60]))
	info, isSelf, ok := tab.Lookup(fork)
	right := info.Right
	if !isSelf { // the fork's right side is the canonical form's left, complemented
		right = [4]uint8{info.Left[3], info.Left[2], info.Left[1], info.Left[0]}
	}
	if !ok || info.Count != 302 || right[base] != MaxExtCount || right[other] != 2 {
		t.Fatalf("fork k-mer: %+v (right %v) ok=%v; want count 302, right %d at %c and 2 at %c",
			info, right, ok, MaxExtCount, g[60], alt[60])
	}
	for _, minCount := range []uint32{2, 255} {
		checkTableMatchesMapRef(t, reads, k, minCount, 2)
	}
	tab.Filter(MaxExtCount)
	if ctgs := tab.Contigs(Config{K: k, MinCount: MaxExtCount}); len(ctgs) != 1 || len(ctgs[0].Seq) != len(g) {
		t.Errorf("MinCount %d: %d contigs, want one of %d bases (the whole read)", MaxExtCount, len(ctgs), len(g))
	}
	for _, m := range []uint32{0, 256} {
		if err := (&Config{K: k, MinCount: m}).Validate(); err == nil {
			t.Errorf("MinCount %d accepted", m)
		}
	}

	for i := range 1000 {
		a, b := rng.Uint64(), rng.Uint64()
		if i < 4 {
			a, b = []uint64{0, ^uint64(0), 0x80ff7f01_00fe0180, 0x0101010101010101}[i], []uint64{0, 1, 0x8001807f_ff01fe7f, 0xfefefefefefefefe}[i]
		}
		var want uint64
		for sh := 0; sh < 64; sh += 8 {
			want |= min(a>>sh&0xff+b>>sh&0xff, MaxExtCount) << sh
		}
		if got := addExt(a, b); got != want {
			t.Fatalf("addExt(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

// TestKeysSharingFirstWord gives every read the same first 32 bases, 16 of
// them A so that each read's first k-mer is canonical as read and the
// smallest of its path: keys that differ only past their first word must
// not meet in a probe, and the start order, which IDs the contigs, must
// rank them by their later words.
func TestKeysSharingFirstWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := append(bytes.Repeat([]byte("A"), 16), randGenome(rng, 16)...)
	for _, k := range []int{33, 55, 97} {
		var reads [][]byte
		for i := 0; i < 40; i++ {
			r := append(append([]byte(nil), prefix...), randGenome(rng, 2*k)...)
			reads = append(reads, r, r)
		}
		for _, workers := range []int{1, 3} {
			checkTableMatchesMapRef(t, reads, k, 2, workers)
		}
	}
}

// TestCountFilterContigsAllocBytes is the allocation gate on the shape the
// job daemon runs most (≈ 200 reads per job): bins, partitions and the
// Filter rebuild are sized from the input, so a small input must not pay
// for structures sized for a large one. Each bound is the bytes measured
// for the one-array partitions (TotalAlloc around the calls, smallest of
// five) plus a tenth; the two-array layout before them took 1,268,536
// (k = 21) and 1,531,912 (k = 33) bytes, the map implementation 2,017,464 at
// k = 21.
func TestCountFilterContigsAllocBytes(t *testing.T) {
	reads := fuzzReads(rand.New(rand.NewSource(31)), 3000, 200, 150, 2)
	for _, tc := range []struct {
		k        int
		measured uint64
	}{{21, 965_416}, {33, 1_245_176}} {
		c := Config{K: tc.k, MinCount: 2, Workers: 1}
		got := ^uint64(0)
		var before, after runtime.MemStats
		for run := 0; run < 5; run++ { // a GC cycle or a harness goroutine can only add
			runtime.ReadMemStats(&before)
			tab, err := Count(reads, c)
			if err != nil {
				t.Fatal(err)
			}
			tab.Filter(c.MinCount)
			tab.Contigs(c)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("k=%d, %d reads: %d bytes, %d measured", tc.k, len(reads), got, tc.measured)
		if bound := tc.measured + tc.measured/10; got > bound {
			t.Errorf("k=%d: Count+Filter+Contigs allocated %d bytes, over the bound %d (measured %d plus a tenth)", tc.k, got, bound, tc.measured)
		}
	}
}
