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
			if ok != wantOK || isSelf != wantSelf || (ok && *info != *want) {
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
// every word boundary.
func FuzzTableMatchesMapRef(f *testing.F) {
	ks := []int{4, 21, 32, 33, 55, 64, 65, 96, 97, 128}
	for seed := range ks {
		f.Add(int64(seed), uint8(seed), uint8(seed), uint8(seed), uint16(300), uint8(40), uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed int64, kSel, minSel, workerSel uint8, genomeLen uint16, nReads, ambig uint8) {
		k := ks[int(kSel)%len(ks)]
		minCount := uint32(minSel%3) + 1
		workers := []int{1, 2, 3, 8}[workerSel%4]
		rng := rand.New(rand.NewSource(seed))
		reads := fuzzReads(rng, int(genomeLen%2048), int(nReads), k+rng.Intn(2*k), int(ambig%32))
		checkTableMatchesMapRef(t, reads, k, minCount, workers)
	})
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

// mapRefAllocBytes is what the map implementation (mapref_test.go) allocates
// for Count + Filter + Contigs on the gate's input, measured at the parent
// of the flat-table change: TotalAlloc around the calls, smallest of five.
const mapRefAllocBytes = 2_017_464

// TestCountFilterContigsAllocBytes is the allocation gate on the shape the
// job daemon runs most (≈ 200 reads per job): bins, partitions and the
// Filter rebuild are sized from the input, so a small input must not pay
// for structures sized for a large one.
func TestCountFilterContigsAllocBytes(t *testing.T) {
	reads := fuzzReads(rand.New(rand.NewSource(31)), 3000, 200, 150, 2)
	c := Config{K: 21, MinCount: 2, Workers: 1}
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
	t.Logf("%d reads: %d bytes, %d with the map implementation", len(reads), got, mapRefAllocBytes)
	if got > mapRefAllocBytes {
		t.Errorf("Count+Filter+Contigs allocated %d bytes; the map implementation allocated %d", got, mapRefAllocBytes)
	}
}
