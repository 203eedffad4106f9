package align

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/synth"
)

// referenceSeedOriented is the vote map SeedOriented replaced, kept as the
// oracle for the winner and its (ctg, shift) tie-break.
func referenceSeedOriented(a *Aligner, seq []byte, isRC bool) (SeedTask, bool) {
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
		locs := a.seeds[km.Hash(0)]
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

func checkSeedsMatchReference(t *testing.T, a *Aligner, reads [][]byte) (seeded int) {
	t.Helper()
	for _, seq := range reads {
		for _, rc := range []bool{false, true} {
			if rc {
				seq = dna.RevComp(seq)
			}
			got, ok := a.SeedOriented(seq, rc)
			want, wantOK := referenceSeedOriented(a, seq, rc)
			if got != want || ok != wantOK {
				t.Fatalf("read %s rc %v: got %+v %v, want %+v %v", seq, rc, got, ok, want, wantOK)
			}
			if ok {
				seeded++
			}
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

// Contigs that hold one 400-base repeat in exactly MaxSeedHits copies, two
// tandem contigs whose seeds exceed it, and reads drawn across them with
// every window seeded: diagonals tie, and the votes outgrow the stack buffer.
func TestSeedOrientedMatchesVoteMapRepeats(t *testing.T) {
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
	for _, locs := range a.seeds {
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
	checkSeedsMatchReference(t, a, reads)
}
