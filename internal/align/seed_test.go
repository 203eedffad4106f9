package align

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/synth"
)

// referenceIndex is the seed map the flat index replaced, kept as the
// oracle's index: every location of a seed's Hash(0), in (contig, position)
// order.
func referenceIndex(a *Aligner) map[uint64][]seedLoc {
	idx := map[uint64][]seedLoc{}
	for ci, ctg := range a.ctgs {
		kmer.ForEach(ctg, a.cfg.SeedLen, func(pos int, km kmer.Kmer) {
			h := km.Hash(0)
			idx[h] = append(idx[h], seedLoc{ctg: int32(ci), pos: int32(pos)})
		})
	}
	return idx
}

// referenceSeedOriented is the vote map SeedOriented replaced, kept as the
// oracle for the winner and its (ctg, shift) tie-break.
func referenceSeedOriented(a *Aligner, idx map[uint64][]seedLoc, seq []byte, isRC bool) (SeedTask, bool) {
	stride := a.cfg.SeedStride
	if stride <= 0 {
		stride = a.cfg.SeedLen
	}
	type diag struct {
		ctg   int32
		shift int32
	}
	votes := map[diag]int{}
	kmer.ForEach(seq, a.cfg.SeedLen, func(pos int, km kmer.Kmer) {
		if pos%stride != 0 {
			return
		}
		locs := idx[km.Hash(0)]
		if len(locs) == 0 || len(locs) > a.cfg.MaxSeedHits {
			return
		}
		for _, l := range locs {
			votes[diag{ctg: l.ctg, shift: l.pos - int32(pos)}]++
		}
	})
	if len(votes) == 0 {
		return SeedTask{}, false
	}
	var bestD diag
	bestV := -1
	for d, v := range votes {
		if v > bestV || (v == bestV && (d.ctg < bestD.ctg || (d.ctg == bestD.ctg && d.shift < bestD.shift))) {
			bestD, bestV = d, v
		}
	}
	return SeedTask{CtgID: int(bestD.ctg), Shift: int(bestD.shift), RC: isRC}, true
}

// checkSeedsMatchReference compares SeedOriented on each read and on its
// reverse complement, and SeedStrands' one roll of the read, with the
// reference votes, and the flat index with the map for every seed.
func checkSeedsMatchReference(t *testing.T, a *Aligner, reads [][]byte) (seeded int) {
	t.Helper()
	idx := referenceIndex(a)
	for h, want := range idx {
		if got := a.seeds.lookup(h); !slices.Equal(got, want) {
			t.Fatalf("seed %#x: index holds %v, map %v", h, got, want)
		}
	}
	for _, read := range reads {
		var want [2]SeedTask
		var wantOK [2]bool
		for strand, rc := range []bool{false, true} {
			seq := read
			if rc {
				seq = dna.RevComp(read)
			}
			got, ok := a.SeedOriented(seq, rc)
			want[strand], wantOK[strand] = referenceSeedOriented(a, idx, seq, rc)
			if got != want[strand] || ok != wantOK[strand] {
				t.Fatalf("read %s rc %v: got %+v %v, want %+v %v", seq, rc, got, ok, want[strand], wantOK[strand])
			}
			if ok {
				seeded++
			}
		}
		fwd, rev, okF, okR := a.SeedStrands(read)
		if fwd != want[0] || rev != want[1] || okF != wantOK[0] || okR != wantOK[1] {
			t.Fatalf("read %s: SeedStrands %+v %v / %+v %v, want %+v %v / %+v %v",
				read, fwd, okF, rev, okR, want[0], wantOK[0], want[1], wantOK[1])
		}
	}
	return seeded
}

func TestSeedOrientedMatchesVoteMapArctic(t *testing.T) {
	com, pairs, err := synth.ArcticSynthPreset().Build()
	if err != nil {
		t.Fatal(err)
	}
	var ctgs, reads [][]byte
	for _, g := range com.Genomes {
		ctgs = append(ctgs, g.Seq)
	}
	for _, r := range synth.Flatten(pairs)[:6000] {
		reads = append(reads, r.Seq)
	}
	a, err := New(ctgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A read seeds in the orientation it was sampled in.
	if n := checkSeedsMatchReference(t, a, reads); n < len(reads)/2 {
		t.Fatalf("only %d of %d orientations seeded", n, 2*len(reads))
	}
}

func TestSeedOrientedMatchesVoteMapRepeats(t *testing.T) {
	a, reads := repeatFixture(t)
	checkSeedsMatchReference(t, a, reads)
}

// repeatFixture is contigs that hold one 400-base repeat in exactly
// MaxSeedHits copies, two tandem contigs whose seeds exceed it, and reads
// drawn across them with every window seeded: diagonals tie, and the votes
// outgrow the stack buffer.
func repeatFixture(t *testing.T) (*Aligner, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	repeat := randSeq(rng, 400)
	var ctgs [][]byte
	for c := 0; c < 8; c++ {
		var ctg []byte
		for copies := 0; copies < 8; copies++ {
			ctg = append(ctg, randSeq(rng, 50+rng.Intn(100))...)
			ctg = append(ctg, repeat...)
		}
		ctgs = append(ctgs, ctg)
	}
	tandem := bytes.Repeat([]byte("ACGGTCATTGCAGTCAAGTCCTAGA"), 40)
	ctgs = append(ctgs, tandem, tandem)
	cfg := DefaultConfig()
	cfg.SeedStride = 1
	a, err := New(ctgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	atCap, overCap := 0, 0
	for _, locs := range referenceIndex(a) {
		switch {
		case len(locs) == cfg.MaxSeedHits:
			atCap++
		case len(locs) > cfg.MaxSeedHits:
			overCap++
		}
	}
	if atCap == 0 || overCap == 0 {
		t.Fatalf("fixture has %d seeds at MaxSeedHits and %d over it; want both", atCap, overCap)
	}
	var reads [][]byte
	for n := 0; n < 400; n++ {
		ctg := ctgs[rng.Intn(len(ctgs))]
		at := rng.Intn(len(ctg) - 150)
		read := append([]byte(nil), ctg[at:at+150]...)
		read[rng.Intn(150)] = 'N'
		reads = append(reads, read)
	}
	return a, reads
}

// referenceAlignRead is AlignRead from the oracles: the vote map on the read
// and on its reverse complement, the struct-cell SW, the acceptance
// thresholds, and the forward strand winning a tie. cells adds up the band
// cells of every verification.
func referenceAlignRead(a *Aligner, idx map[uint64][]seedLoc, read []byte) (h Hit, ok bool, cells int64) {
	var hits [2]Hit
	var oks [2]bool
	for strand, rc := range []bool{false, true} {
		seq := read
		if rc {
			seq = dna.RevComp(read)
		}
		if task, seeded := referenceSeedOriented(a, idx, seq, rc); seeded {
			res := referenceBandedSW(seq, a.ctgs[task.CtgID], task.Shift, a.cfg.Band, a.cfg.Scoring)
			hits[strand], oks[strand] = a.AcceptSW(res, task)
			cells += res.Cells
		}
	}
	switch {
	case oks[0] && (!oks[1] || hits[0].Score >= hits[1].Score):
		return hits[0], true, cells
	case oks[1]:
		return hits[1], true, cells
	}
	return Hit{}, false, cells
}

func checkAlignMatchesReference(t *testing.T, a *Aligner, reads [][]byte) (aligned int) {
	t.Helper()
	idx := referenceIndex(a)
	for _, read := range reads {
		before := a.Cells()
		got, ok := a.AlignRead(read)
		want, wantOK, cells := referenceAlignRead(a, idx, read)
		if got != want || ok != wantOK || a.Cells()-before != cells {
			t.Fatalf("read %s: got %+v %v (%d cells), want %+v %v (%d cells)",
				read, got, ok, a.Cells()-before, want, wantOK, cells)
		}
		if ok {
			aligned++
		}
	}
	return aligned
}

// arcticFixture returns the arctic preset's reads and its k = 21 contigs.
func arcticFixture(t *testing.T) (reads, ctgs [][]byte) {
	t.Helper()
	_, pairs, err := synth.ArcticSynthPreset().Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range synth.Flatten(pairs) {
		reads = append(reads, r.Seq)
	}
	dcfg := dbg.Config{K: 21, MinCount: 2}
	tab, err := dbg.Count(reads, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tab.Filter(dcfg.MinCount)
	for _, c := range tab.Contigs(dcfg) {
		ctgs = append(ctgs, c.Seq)
	}
	return reads, ctgs
}

// TestAlignReadMatchesReference: the arctic preset's reads against its
// k = 21 contigs, and the repeat fixture's reads.
func TestAlignReadMatchesReference(t *testing.T) {
	seqs, ctgs := arcticFixture(t)
	a, err := New(ctgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads := seqs[:min(len(seqs), 4000)]
	if n := checkAlignMatchesReference(t, a, reads); n < len(reads)/2 {
		t.Fatalf("only %d of %d reads aligned", n, len(reads))
	}
	rep, repReads := repeatFixture(t)
	checkAlignMatchesReference(t, rep, repReads)
}

// TestAlignReadNoAllocs: seeding, verification and the reverse complement
// of a read of up to 256 bases stay on the stack.
func TestAlignReadNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctgs := [][]byte{randSeq(rng, 2000), randSeq(rng, 2000)}
	a := buildTestAligner(t, ctgs)
	exact := ctgs[1][500:650]
	noisy := append([]byte(nil), exact...)
	noisy[70] = otherBase(noisy[70])
	for name, read := range map[string][]byte{"exact": exact, "DP": noisy, "reverse strand": dna.RevComp(noisy)} {
		_, _, okF, okR := a.SeedStrands(read)
		if okF == okR {
			t.Fatalf("%s: fixture seeds forward %v, reverse %v; want one strand", name, okF, okR)
		}
		if n := testing.AllocsPerRun(100, func() { a.AlignRead(read) }); n != 0 {
			t.Errorf("%s: %v allocations per AlignRead", name, n)
		}
	}
}

// FuzzSeedIndexMatchesMap builds the index over fuzzed contigs at a fuzzed
// seed length and checks it against the map reference: every key's run,
// the contigs seeded as reads, no run for a key beside a present one, and
// the bucket count, a power of two in (windows/2, windows].
func FuzzSeedIndexMatchesMap(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	withN := randSeq(rng, 300)
	withN[40], withN[41], withN[299] = 'N', 'N', 'N'
	for _, seed := range []struct {
		ctgs    string
		seedLen uint8
	}{
		{"", 9},                        // no contigs
		{"ACGTACGTACGTACGT,ACG,,T", 9}, // each shorter than SeedLen 17
		{string(withN) + ",NNNN" + string(randSeq(rng, 60)), 9},             // N in and around windows
		{strings.Repeat("A", 200) + "," + strings.Repeat("A", 40), 9},       // one key, 208 occurrences
		{string(randSeq(rng, 255+16)), 9},                                   // 255 windows: 128 buckets
		{string(randSeq(rng, 256+16)), 9},                                   // 256 windows: 256 buckets
		{string(randSeq(rng, 100)) + "," + string(randSeq(rng, 157+16)), 9}, // 257 windows
		{string(randSeq(rng, 40)) + "," + string(randSeq(rng, 70)), 0},      // SeedLen 8
		{string(randSeq(rng, 40)) + "," + string(randSeq(rng, 70)), 24},     // SeedLen 32
	} {
		f.Add(seed.ctgs, seed.seedLen)
	}
	f.Fuzz(func(t *testing.T, in string, seedLen uint8) {
		cfg := DefaultConfig()
		cfg.SeedLen = 8 + int(seedLen)%25
		var ctgs [][]byte
		if in != "" {
			for _, c := range strings.Split(in, ",") {
				ctgs = append(ctgs, []byte(c))
			}
		}
		a, err := New(ctgs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSeedsMatchReference(t, a, ctgs)
		idx := referenceIndex(a)
		for h := range idx {
			for _, near := range []uint64{h - 1, h + 1} {
				if _, in := idx[near]; !in && len(a.seeds.lookup(near)) != 0 {
					t.Fatalf("seed %#x: index holds %v, map nothing", near, a.seeds.lookup(near))
				}
			}
		}
		n, buckets := kmer.Windows(ctgs, cfg.SeedLen), 1<<(64-a.seeds.shift)
		if buckets&(buckets-1) != 0 || buckets > max(n, 1) || 2*buckets <= n {
			t.Fatalf("%d windows in %d buckets", n, buckets)
		}
	})
}

// TestSeedIndexAllocBytes is the allocation gate on the seed index, built
// over the arctic preset's k = 21 contigs: the bound is the bytes measured
// with the bucketed index (16 per occurrence and 4 per bucket) plus a
// tenth, 18.2 per window. The open-addressing table it replaced, with its
// two build temporaries, took 26,304,672 bytes.
func TestSeedIndexAllocBytes(t *testing.T) {
	_, ctgs := arcticFixture(t)
	const measured = 8_675_520
	got := ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		if _, err := New(ctgs, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d contigs, %d windows: %d bytes, %d measured", len(ctgs), kmer.Windows(ctgs, DefaultConfig().SeedLen), got, measured)
	if bound := uint64(measured + measured/10); got > bound {
		t.Errorf("New allocated %d bytes, over the bound %d (measured %d plus a tenth)", got, bound, measured)
	}
}
