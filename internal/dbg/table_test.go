package dbg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
// same contigs. The flat table comes from a Counter that has already
// counted the reads once.
func checkTableMatchesMapRef(t *testing.T, reads [][]byte, k int, minCount uint32, workers int) {
	t.Helper()
	c := Config{K: k, MinCount: minCount, Workers: workers}
	var ctr Counter // warmed at another k, and another key width where there is one
	warm, err := ctr.Count(reads, Config{K: 132 - k, MinCount: minCount, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ctr.Release(warm)
	tab, err := ctr.Count(reads, c)
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

// sameArray reports whether two slot slices share their first word.
func sameArray(a, b []uint64) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

// checkTablesMatch requires got to hold exactly want's k-mers, with the same
// records, and to give the same contigs at c.
func checkTablesMatch(t *testing.T, got, want *Table, c Config, what string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d k-mers, want %d", what, got.Len(), want.Len())
	}
	for _, cur := range want.sorted() {
		for _, km := range []kmer.Kmer{cur.km, cur.km.RevComp(c.K)} {
			w, wSelf, _ := want.Lookup(km)
			if info, isSelf, ok := got.Lookup(km); !ok || info != w || isSelf != wSelf {
				t.Fatalf("%s %s: %+v self=%v ok=%v, want %+v self=%v", what, km.Bytes(c.K), info, isSelf, ok, w, wSelf)
			}
		}
	}
	if g, w := got.Contigs(c), want.Contigs(c); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %d contigs differ from the %d of a fresh table", what, len(g), len(w))
	}
}

// TestCounterRecycles counts k = 21, 33, 55 and 21 again on one Counter,
// releasing each table before the next round, and compares every table with
// a fresh Count's before and after Filter. The k = 55 and second k = 21
// rounds count in the arrays the round before released, and every Filter
// compacts in place: rebuild's in-place branch. A NewTable filled to its
// load bound grows into a fresh array, rebuild's allocating branch, and
// still holds what was added.
func TestCounterRecycles(t *testing.T) {
	reads := fuzzReads(rand.New(rand.NewSource(42)), 3000, 400, 150, 4)
	var ctr Counter
	var released [][]uint64
	for round, k := range []int{21, 33, 55, 21} {
		c := Config{K: k, MinCount: 2, Workers: 3}
		got, err := ctr.Count(reads, c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Count(reads, c)
		what := fmt.Sprintf("round %d (k=%d)", round, k)
		checkTablesMatch(t, got, want, c, what)
		counted := make([][]uint64, len(got.parts))
		for i, p := range got.parts {
			if counted[i] = p.slots; round >= 2 && !sameArray(p.slots, released[i]) {
				t.Errorf("%s: partition %d did not count in the released array", what, i)
			}
		}
		if got, want := got.Filter(c.MinCount), want.Filter(c.MinCount); got != want {
			t.Fatalf("%s: Filter dropped %d, fresh table %d", what, got, want)
		}
		checkTablesMatch(t, got, want, c, what+" filtered")
		for i, p := range got.parts {
			if !sameArray(p.slots, counted[i]) {
				t.Errorf("%s: partition %d's Filter left its array", what, i)
			}
		}
		released = counted
		ctr.Release(got)
	}

	c := Config{K: 33, MinCount: 2}
	want, _ := Count(reads, Config{K: 33, MinCount: 1, Workers: 1})
	grown := NewTable(c.K, want.Len()-1)
	first := grown.parts[0].slots
	for _, cur := range want.sorted() {
		if !sameArray(grown.parts[0].slots, first) {
			t.Fatalf("NewTable for %d k-mers grew at %d", want.Len()-1, grown.Len())
		}
		info, _, _ := want.Lookup(cur.km)
		grown.Add(cur.km, info)
	}
	if sameArray(grown.parts[0].slots, first) {
		t.Fatalf("NewTable for %d k-mers kept its array for %d", want.Len()-1, grown.Len())
	}
	checkTablesMatch(t, grown, want, c, "grown NewTable")
}

// inPlace reports whether every rebuild of a partition so far fits an
// array of capacity words: rebuild keeps its array when the new slots and
// the survivors packed past them fit, and no rebuild so far asked for more
// slots or more survivors than the partition has now.
func inPlace(p *partition, words int) bool { return len(p.slots)+p.n*p.stride <= words }

// TestCounterAcrossRuns is a daemon worker's sequence of jobs on one
// Counter: two read sets of different sizes, each job at its own k and
// partition count (3, then 1, then 4), its rounds released in turn. So a
// Count meets arrays released by another input, another key width and
// another number of partitions. Every table equals a fresh Count's before
// and after Filter, and a partition whose released array fits every
// rebuild it made counts in that array, and filters in it.
func TestCounterAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	small, large := fuzzReads(rng, 1500, 400, 150, 3), fuzzReads(rng, 6000, 1600, 150, 4)
	var ctr Counter
	var released [][]uint64
	kept, fresh := 0, 0
	for _, job := range []struct {
		name    string
		reads   [][]byte
		workers int
		ks      []int
	}{{"large", large, 3, []int{21, 33}}, {"small", small, 1, []int{21, 55}}, {"large", large, 4, []int{33, 21}}} {
		for _, k := range job.ks {
			c := Config{K: k, MinCount: 2, Workers: job.workers}
			what := fmt.Sprintf("%s reads, k=%d, %d partitions", job.name, k, job.workers)
			got, err := ctr.Count(job.reads, c)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Count(job.reads, c)
			checkTablesMatch(t, got, want, c, what)
			counted := make([][]uint64, len(got.parts))
			for i := range got.parts {
				p := &got.parts[i]
				counted[i] = p.slots
				if i >= len(released) || !inPlace(p, cap(released[i])) {
					fresh++
					continue
				}
				if kept++; !sameArray(p.slots, released[i]) {
					t.Errorf("%s: partition %d did not count in the released array that fits it", what, i)
				}
			}
			if got, want := got.Filter(c.MinCount), want.Filter(c.MinCount); got != want {
				t.Fatalf("%s: Filter dropped %d, fresh table %d", what, got, want)
			}
			checkTablesMatch(t, got, want, c, what+" filtered")
			for i := range got.parts {
				if p := &got.parts[i]; inPlace(p, cap(counted[i])) && !sameArray(p.slots, counted[i]) {
					t.Errorf("%s: partition %d's Filter left an array that fits it", what, i)
				}
			}
			released = counted
			ctr.Release(got)
		}
	}
	t.Logf("%d partitions counted in a released array that fits them, %d had none", kept, fresh)
	if kept == 0 || fresh == 0 {
		t.Errorf("%d partitions met a released array that fits them and %d did not, want some of each", kept, fresh)
	}
}

// allocated returns the fewest bytes fn allocates in runs calls after a
// first one that is not counted: a GC cycle or a harness goroutine can
// only add.
func allocated(t *testing.T, runs int, fn func() error) uint64 {
	t.Helper()
	got := ^uint64(0)
	var before, after runtime.MemStats
	for run := range runs + 1 {
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if runtime.ReadMemStats(&after); run > 0 {
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return got
}

// TestCountAllocSameAtAnyGOMAXPROCS: Count's bins are indexed by span, not
// by the worker that scanned it, so what four workers allocate depends on
// the reads alone, not on how many of them run at once.
func TestCountAllocSameAtAnyGOMAXPROCS(t *testing.T) {
	reads := fuzzReads(rand.New(rand.NewSource(31)), 200_000, 4000, 150, 2)
	c := Config{K: 21, MinCount: 2, Workers: 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var lo, hi uint64 = ^uint64(0), 0
	for _, procs := range []int{4, 2, 1} {
		runtime.GOMAXPROCS(procs)
		// Goroutines that end leave their descriptors for reuse: 512 of
		// them are more than Count's workers ever wait on, so no measured
		// call pays for a new one.
		var wg sync.WaitGroup
		release := make(chan struct{})
		for range 512 {
			wg.Add(1)
			go func() { defer wg.Done(); <-release }()
		}
		close(release)
		wg.Wait()
		got := allocated(t, 5, func() error { _, err := Count(reads, c); return err })
		t.Logf("GOMAXPROCS %d: %d bytes", procs, got)
		lo, hi = min(lo, got), max(hi, got)
	}
	if hi-lo > 1024 {
		t.Errorf("Count at %d workers allocated %d to %d bytes across GOMAXPROCS 4, 2 and 1, want within 1 KiB", c.Workers, lo, hi)
	}
}

// TestCountFilterContigsAllocBytes is the allocation gate on the shape the
// job daemon runs most (≈ 200 reads per job): bins, partitions and the
// Filter rebuild are sized from the input, so a small input must not pay
// for structures sized for a large one. Each bound is the bytes measured
// with in-place Filter and span-indexed bins sized per span (smallest of
// five) plus a tenth; a fresh array per rebuild and bins indexed by worker
// took 965,416 (k = 21) and 1,245,176 (k = 33) bytes, the two-array layout
// before them 1,268,536 and 1,531,912, the map implementation 2,017,464 at
// k = 21. The three rounds on one Counter take 2,021,088 bytes where three
// fresh Counts take 3,002,624, and the third, at k = 33's key width,
// allocates no slot array.
func TestCountFilterContigsAllocBytes(t *testing.T) {
	reads := fuzzReads(rand.New(rand.NewSource(31)), 3000, 200, 150, 2)
	for _, tc := range []struct {
		ks       []int
		measured uint64
	}{{[]int{21}, 848_208}, {[]int{33}, 1_098_016}, {[]int{21, 33, 55}, 2_021_088}} {
		var lastCount, lastSlots uint64
		got := allocated(t, 5, func() error {
			var ctr Counter
			var before, after runtime.MemStats
			for _, k := range tc.ks {
				c := Config{K: k, MinCount: 2, Workers: 1}
				runtime.ReadMemStats(&before)
				tab, err := ctr.Count(reads, c)
				if err != nil {
					return err
				}
				runtime.ReadMemStats(&after)
				lastCount, lastSlots = after.TotalAlloc-before.TotalAlloc, uint64(8*cap(tab.parts[0].slots))
				tab.Filter(c.MinCount)
				tab.Contigs(c)
				ctr.Release(tab)
			}
			return nil
		})
		t.Logf("k=%v, %d reads: %d bytes, %d measured", tc.ks, len(reads), got, tc.measured)
		if bound := tc.measured + tc.measured/10; got > bound {
			t.Errorf("k=%v: Count+Filter+Contigs allocated %d bytes, over the bound %d (measured %d plus a tenth)", tc.ks, got, bound, tc.measured)
		}
		if len(tc.ks) > 1 && lastCount >= lastSlots {
			t.Errorf("k=%v: the last round's Count allocated %d bytes, its slot array is %d", tc.ks, lastCount, lastSlots)
		}
	}
}
