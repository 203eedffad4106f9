package align

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mhm2sim/internal/dna"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = dna.Alphabet[rng.Intn(4)]
	}
	return s
}

func TestBandedSWExactMatch(t *testing.T) {
	q := []byte("ACGTACGTAC")
	res := BandedSW(q, q, 0, 4, DefaultScoring())
	if res.Score != len(q) {
		t.Errorf("score %d, want %d", res.Score, len(q))
	}
	if res.QStart != 0 || res.QEnd != len(q) || res.TStart != 0 || res.TEnd != len(q) {
		t.Errorf("span %d..%d / %d..%d", res.QStart, res.QEnd, res.TStart, res.TEnd)
	}
	if res.Cells == 0 {
		t.Error("no DP cells counted")
	}
}

func TestBandedSWSubstring(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	target := randSeq(rng, 200)
	q := target[60:110]
	res := BandedSW(q, target, 60, 6, DefaultScoring())
	if res.Score != len(q) {
		t.Errorf("score %d, want %d", res.Score, len(q))
	}
	if res.TStart != 60 || res.TEnd != 110 {
		t.Errorf("target span %d..%d, want 60..110", res.TStart, res.TEnd)
	}
}

func TestBandedSWMismatchesLowerScore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	target := randSeq(rng, 100)
	q := append([]byte(nil), target[20:70]...)
	q[10] = q[10]%4 + 'A' // likely corrupt one base
	q[10] = dna.Alphabet[(func() int {
		c, _ := dna.Code(target[30])
		return (int(c) + 1) % 4
	})()]
	res := BandedSW(q, target, 20, 5, DefaultScoring())
	if res.Score >= len(q) {
		t.Errorf("score %d not reduced by mismatch", res.Score)
	}
	if res.Score < len(q)-4 {
		t.Errorf("score %d too low for a single mismatch", res.Score)
	}
}

func TestBandedSWIndel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	target := randSeq(rng, 120)
	// Query = target slice with one base deleted.
	q := append([]byte(nil), target[10:40]...)
	q = append(q, target[41:70]...)
	res := BandedSW(q, target, 10, 5, DefaultScoring())
	want := len(q) - 3 // one gap: -1 penalty versus +1 missed match, roughly
	if res.Score < want-2 {
		t.Errorf("score %d too low for single deletion (want ≈%d)", res.Score, want)
	}
}

func TestBandedSWShiftOutOfBand(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := randSeq(rng, 150)
	q := target[50:90]
	// Wildly wrong shift: the true diagonal is outside the band, so the
	// score must stay far below a full match.
	res := BandedSW(q, target, 0, 4, DefaultScoring())
	if res.Score >= len(q)*3/4 {
		t.Errorf("out-of-band alignment scored %d", res.Score)
	}
}

func TestBandedSWEmpty(t *testing.T) {
	res := BandedSW(nil, []byte("ACGT"), 0, 4, DefaultScoring())
	if res.Score != 0 {
		t.Error("empty query should score 0")
	}
	res = BandedSW([]byte("ACGT"), nil, 0, 4, DefaultScoring())
	if res.Score != 0 {
		t.Error("empty target should score 0")
	}
}

func TestScoringValidate(t *testing.T) {
	if (Scoring{Match: 0, Mismatch: -1, Gap: -1}).Validate() == nil {
		t.Error("match=0 accepted")
	}
	if (Scoring{Match: 1, Mismatch: 1, Gap: -1}).Validate() == nil {
		t.Error("mismatch>0 accepted")
	}
	if (Scoring{Match: 1, Mismatch: -1, Gap: 0}).Validate() == nil {
		t.Error("gap=0 accepted")
	}
}

func buildTestAligner(t *testing.T, ctgs [][]byte) *Aligner {
	t.Helper()
	a, err := New(ctgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAlignReadForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctgs := [][]byte{randSeq(rng, 400), randSeq(rng, 300)}
	a := buildTestAligner(t, ctgs)

	read := ctgs[1][100:200]
	h, ok := a.AlignRead(read)
	if !ok {
		t.Fatal("no hit")
	}
	if h.CtgID != 1 || h.RC {
		t.Errorf("hit %+v, want contig 1 forward", h)
	}
	if h.CtgStart != 100 || h.CtgEnd != 200 {
		t.Errorf("span %d..%d, want 100..200", h.CtgStart, h.CtgEnd)
	}
	if h.Score != 100 {
		t.Errorf("score %d, want 100", h.Score)
	}
}

func TestAlignReadReverseComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ctgs := [][]byte{randSeq(rng, 400)}
	a := buildTestAligner(t, ctgs)

	read := dna.RevComp(ctgs[0][150:250])
	h, ok := a.AlignRead(read)
	if !ok {
		t.Fatal("no hit")
	}
	if !h.RC {
		t.Error("RC flag not set")
	}
	if h.CtgStart != 150 || h.CtgEnd != 250 {
		t.Errorf("span %d..%d, want 150..250", h.CtgStart, h.CtgEnd)
	}
}

func TestAlignReadWithErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctgs := [][]byte{randSeq(rng, 500)}
	a := buildTestAligner(t, ctgs)

	read := append([]byte(nil), ctgs[0][200:320]...)
	for _, p := range []int{30, 60, 90} {
		c, _ := dna.Code(read[p])
		read[p] = dna.Alphabet[(c+1)&3]
	}
	h, ok := a.AlignRead(read)
	if !ok {
		t.Fatal("3 mismatches in 120 bases should still align")
	}
	if h.CtgStart > 205 || h.CtgEnd < 315 {
		t.Errorf("span %d..%d too short", h.CtgStart, h.CtgEnd)
	}
}

func TestAlignReadNoHit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ctgs := [][]byte{randSeq(rng, 400)}
	a := buildTestAligner(t, ctgs)
	if _, ok := a.AlignRead(randSeq(rng, 100)); ok {
		t.Error("random read aligned")
	}
	if _, ok := a.AlignRead([]byte("ACGT")); ok {
		t.Error("tiny read aligned")
	}
}

func TestAlignReadOverhang(t *testing.T) {
	// A read overlapping the contig end must align its overlapping part.
	rng := rand.New(rand.NewSource(9))
	genome := randSeq(rng, 500)
	ctg := genome[:300]
	a := buildTestAligner(t, [][]byte{ctg})

	read := genome[260:360] // 40 bases on the contig, 60 beyond
	h, ok := a.AlignRead(read)
	if !ok {
		t.Fatal("overhanging read did not align")
	}
	if h.CtgEnd < 295 {
		t.Errorf("alignment should reach the contig end, got %d", h.CtgEnd)
	}
	left, right := a.EndCandidate(h, len(read), 100)
	if !right {
		t.Error("overhanging read not classified as right-end candidate")
	}
	if left {
		t.Error("read near the right end misclassified as left candidate")
	}
}

func TestEndCandidateLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	genome := randSeq(rng, 500)
	ctg := genome[200:500]
	a := buildTestAligner(t, [][]byte{ctg})
	read := genome[150:260] // 50 before the contig, 60 on it
	h, ok := a.AlignRead(read)
	if !ok {
		t.Fatal("no hit")
	}
	left, _ := a.EndCandidate(h, len(read), 100)
	if !left {
		t.Error("left-overhanging read not classified as left candidate")
	}
}

func TestAlignerCellsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctgs := [][]byte{randSeq(rng, 300)}
	a := buildTestAligner(t, ctgs)
	a.AlignRead(ctgs[0][50:150])
	if a.Cells() == 0 {
		t.Error("aln-kernel cell counter did not advance")
	}
}

// TestAlignReadConcurrent: hits and the work counter do not depend on how
// many goroutines share the aligner.
func TestAlignReadConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ctgs := [][]byte{randSeq(rng, 1500), randSeq(rng, 900)}
	var reads [][]byte
	for n := 0; n < 200; n++ {
		ctg := ctgs[n%2]
		at := rng.Intn(len(ctg) - 120)
		read := append([]byte(nil), ctg[at:at+120]...)
		read[rng.Intn(120)] = 'A'
		if n%3 == 0 {
			read = dna.RevComp(read)
		}
		reads = append(reads, read)
	}
	seq := buildTestAligner(t, ctgs)
	want := make([]Hit, len(reads))
	for i, r := range reads {
		want[i], _ = seq.AlignRead(r)
	}
	con := buildTestAligner(t, ctgs)
	got := make([]Hit, len(reads))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reads); i += 4 {
				got[i], _ = con.AlignRead(reads[i])
			}
		}(w)
	}
	wg.Wait()
	if !slices.Equal(got, want) || con.Cells() != seq.Cells() {
		t.Fatalf("4 goroutines: %d cells, hits differ %v; one: %d cells", con.Cells(), !slices.Equal(got, want), seq.Cells())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.SeedLen = 4
	if bad.Validate() == nil {
		t.Error("seed length 4 accepted")
	}
	bad = DefaultConfig()
	bad.Band = 0
	if bad.Validate() == nil {
		t.Error("band 0 accepted")
	}
	bad = DefaultConfig()
	bad.MinScoreFrac = 0
	if bad.Validate() == nil {
		t.Error("zero score fraction accepted")
	}
}

func BenchmarkAlignRead150(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	ctgs := make([][]byte, 20)
	for i := range ctgs {
		ctgs[i] = randSeq(rng, 2000)
	}
	a, err := New(ctgs, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	read := ctgs[7][500:650]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.AlignRead(read); !ok {
			b.Fatal("lost the read")
		}
	}
}
