package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceBandedSW is the struct-cell loop BandedSW replaced, kept as the
// oracle: it fills every in-band cell, tests every bound per cell and knows
// no shortcut.
func referenceBandedSW(query, target []byte, shift, band int, sc Scoring) SWResult {
	return referenceBandedSWVisit(query, target, shift, band, sc, nil)
}

// referenceBandedSWVisit is referenceBandedSW that also hands every filled
// cell's row, band offset, target column and score to visit, if not nil.
func referenceBandedSWVisit(query, target []byte, shift, band int, sc Scoring, visit func(i, w, j, score int)) SWResult {
	if band < 1 {
		band = 1
	}
	width := 2*band + 1

	type cell struct {
		score  int
		qs, ts int // local start of the alignment ending here
	}
	prev := make([]cell, width)
	cur := make([]cell, width)

	best := SWResult{}
	var cells int64

	for i := 0; i < len(query); i++ {
		for w := 0; w < width; w++ {
			cur[w] = cell{}
		}
		for w := 0; w < width; w++ {
			j := i + shift + (w - band)
			if j < 0 || j >= len(target) {
				continue
			}
			cells++

			// Diagonal predecessor sits at the same w in the previous row.
			var diag cell
			if i > 0 {
				diag = prev[w]
			}
			s := sc.Mismatch
			if query[i] == target[j] {
				s = sc.Match
			}
			bestScore := diag.score + s
			qs, ts := diag.qs, diag.ts
			if diag.score == 0 {
				qs, ts = i, j
			}

			// Up (gap in target): previous row, w+1.
			if i > 0 && w+1 < width {
				if v := prev[w+1].score + sc.Gap; v > bestScore {
					bestScore, qs, ts = v, prev[w+1].qs, prev[w+1].ts
				}
			}
			// Left (gap in query): same row, w-1.
			if w-1 >= 0 {
				if v := cur[w-1].score + sc.Gap; v > bestScore {
					bestScore, qs, ts = v, cur[w-1].qs, cur[w-1].ts
				}
			}
			if bestScore < 0 {
				bestScore, qs, ts = 0, i, j
			}
			cur[w] = cell{score: bestScore, qs: qs, ts: ts}
			if visit != nil {
				visit(i, w, j, bestScore)
			}

			if bestScore > best.Score {
				best = SWResult{
					Score:  bestScore,
					QStart: qs, QEnd: i + 1,
					TStart: ts, TEnd: j + 1,
				}
			}
		}
		prev, cur = cur, prev
	}
	best.Cells = cells
	return best
}

// swCase is one BandedSW call in the form the fuzzer mutates. args folds
// any bytes to bases and band, scoring and shift into range, and leaves a
// case written in range as it is.
type swCase struct {
	q, t                      []byte
	shift                     int
	band, match, mismatch, gp uint8
}

func (c swCase) args() (q, t []byte, shift, band int, sc Scoring) {
	fold := func(s []byte) []byte {
		out := make([]byte, len(s))
		for i, b := range s {
			out[i] = "ACTG"[b>>1&3] // the identity on A, C, G, T
		}
		return out
	}
	sc = Scoring{Match: 1 + int(c.match%5), Mismatch: -1 - int(c.mismatch%5), Gap: -1 - int(c.gp%5)}
	// Keep the diagonal within a band of either sequence end; beyond that
	// every row is empty.
	left, span := len(c.q)+41, len(c.q)+len(c.t)+2*41
	shift = ((c.shift+left)%span+span)%span - left
	return fold(c.q), fold(c.t), shift, 1 + int(c.band%40), sc
}

func otherBase(b byte) byte {
	if b == 'A' {
		return 'C'
	}
	return 'A'
}

func repeatUnit(unit string, n int) []byte { return bytes.Repeat([]byte(unit), n)[:n] }

// swSeedCases are the shapes the two parts of BandedSW branch on.
func swSeedCases() []swCase {
	rng := rand.New(rand.NewSource(14))
	tg := randSeq(rng, 300)
	oneOff := append([]byte(nil), tg[100:200]...)
	oneOff[57] = otherBase(oneOff[57])
	indel := append(append([]byte(nil), tg[100:150]...), tg[152:200]...)
	cases := []swCase{
		{q: tg[100:200], t: tg, shift: 100, band: 7},                                    // contained, exact
		{q: tg[100:200], t: tg, shift: 103, band: 7},                                    // exact, but off the seed diagonal
		{q: tg[0:100], t: tg, shift: 0, band: 7},                                        // exact at the left end
		{q: tg[200:300], t: tg, shift: 200, band: 7},                                    // exact at the right end
		{q: tg[100:200], t: tg[100:200], shift: 0, band: 39},                            // whole target, heap rows
		{q: oneOff, t: tg, shift: 100, band: 7},                                         // one base off exact
		{q: indel, t: tg, shift: 100, band: 7, match: 2, gp: 0},                         // Match > |Gap|
		{q: tg[0:100], t: tg[20:], shift: -20, band: 7},                                 // left overhang
		{q: tg[220:300], t: tg[:280], shift: 220, band: 7},                              // right overhang
		{q: tg[0:100], t: tg[20:80], shift: -20, band: 3},                               // overhangs both ends
		{q: repeatUnit("A", 60), t: repeatUnit("A", 150), shift: 40, band: 7},           // homopolymer
		{q: repeatUnit("AC", 60), t: repeatUnit("AC", 150), shift: 40, band: 7},         // period 2
		{q: repeatUnit("ACG", 60), t: repeatUnit("ACG", 150), shift: 42, band: 31},      // period 3, widest stack rows
		{q: repeatUnit("ACG", 60), t: repeatUnit("ACG", 150), shift: 42, band: 32},      // period 3, narrowest heap rows
		{q: repeatUnit("AC", 60), t: repeatUnit("AC", 150), shift: 3, band: 7},          // repeat, band clipped at the left end
		{q: repeatUnit("A", 60), t: repeatUnit("A", 64), shift: -2, band: 7, match: 3},  // homopolymer overhang: gapped paths tie
		{q: repeatUnit("AC", 60), t: repeatUnit("AC", 62), shift: 4, band: 0, match: 4}, // repeat overhang, band 1
		{q: nil, t: tg, shift: 5, band: 7},
		{q: tg[:10], t: nil, shift: 0, band: 7},
		{q: tg[:50], t: tg, shift: 330, band: 7}, // every row empty
	}
	// Mutated placements of random and tandem-repeat reads.
	for n := 0; n < 2000; n++ {
		var t []byte
		if n%3 == 0 {
			t = repeatUnit("ACGTTG"[:1+rng.Intn(6)], 40+rng.Intn(200))
		} else {
			t = randSeq(rng, 40+rng.Intn(200))
		}
		at := rng.Intn(len(t))
		q := append([]byte(nil), t[at:min(len(t), at+10+rng.Intn(150))]...)
		for e := rng.Intn(4); e > 0 && n%2 == 0; e-- {
			q[rng.Intn(len(q))] = "ACGT"[rng.Intn(4)]
		}
		if n%7 == 0 {
			q = append(q, randSeq(rng, rng.Intn(12))...) // runs past the target end
		}
		cases = append(cases, swCase{
			q: q, t: t, shift: at + rng.Intn(7) - 3,
			band:  uint8(rng.Intn(40)),
			match: uint8(rng.Intn(5)), mismatch: uint8(rng.Intn(5)), gp: uint8(rng.Intn(5)),
		})
	}
	return cases
}

func FuzzBandedSWMatchesReference(f *testing.F) {
	for _, c := range swSeedCases() {
		f.Add(c.q, c.t, c.shift, c.band, c.match, c.mismatch, c.gp)
	}
	f.Fuzz(func(t *testing.T, q, tg []byte, shift int, band, match, mismatch, gp uint8) {
		if len(q) > 400 || len(tg) > 800 {
			t.Skip()
		}
		qs, ts, sh, bd, sc := swCase{q, tg, shift, band, match, mismatch, gp}.args()
		got, want := BandedSW(qs, ts, sh, bd, sc), referenceBandedSW(qs, ts, sh, bd, sc)
		if got != want {
			t.Fatalf("BandedSW(%s, %s, shift %d, band %d, %+v)\n got %+v\nwant %+v", qs, ts, sh, bd, sc, got, want)
		}
	})
}

// pruneShapes says, from the oracle's scores, what the dead-cell bound does
// to a DP case: whether a row past the fresh-start rows starts right of its
// first in-target cell (narrowed), whether such a row has no live cell
// while rows are left (the early stop), and whether a cell under a live
// diagonal neighbour is dead only by the target-end term of the bound.
func pruneShapes(q, tg []byte, shift, band int, sc Scoring) (narrowed, stopped, endBound bool) {
	n, m := len(q), len(tg)
	floor := int(diagonalScore(q, tg, shift, int32(sc.Match), int32(sc.Mismatch)))
	live := make([][]bool, n)
	for i := range live {
		live[i] = make([]bool, 2*band+1)
	}
	var deadByEnd [][2]int
	referenceBandedSWVisit(q, tg, shift, band, sc, func(i, w, j, score int) {
		rows, ends := n-1-i, m-1-j
		live[i][w] = score+sc.Match*min(rows, ends) >= floor
		if !live[i][w] && score+sc.Match*rows >= floor {
			deadByEnd = append(deadByEnd, [2]int{i, w})
		}
	})
	for _, c := range deadByEnd {
		endBound = endBound || c[0] > 0 && live[c[0]-1][c[1]]
	}
	for i := 0; i < n; i++ {
		base := i + shift - band
		lo := max(0, -base)
		if sc.Match*(1+min(n-1-i, m-1-base-lo)) >= floor {
			continue // a fresh start may be live in row i
		}
		if i > 0 {
			above := slices.Index(live[i-1], true)
			narrowed = narrowed || above-1 > lo
		}
		if !slices.Contains(live[i], true) {
			return narrowed, i < n-1, endBound
		}
	}
	return narrowed, false, endBound
}

func count(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The seed corpus must reach both branches, both row stores and what the
// dead-cell bound prunes, or the fuzz target proves less than it says.
func TestSeedCorpusCoversBothBranches(t *testing.T) {
	var exact, dp, heap, tandem, narrowed, stopped, endBound int
	for _, c := range swSeedCases() {
		q, tg, shift, band, sc := c.args()
		ts, ok := exactPlacement(q, tg, shift, band)
		switch {
		case ok && ts != shift:
			tandem++
		case ok:
			exact++
		default:
			dp++
			if band > stackBand {
				heap++
			}
			nw, st, eb := pruneShapes(q, tg, shift, band, sc)
			narrowed += count(nw)
			stopped += count(st)
			endBound += count(eb)
		}
	}
	msg := fmt.Sprintf("corpus: %d exact, %d exact on a smaller diagonal, %d DP of which %d on heap rows; "+
		"%d with a narrowed row, %d stopped early, %d with a cell dead by the target end",
		exact, tandem, dp, heap, narrowed, stopped, endBound)
	if exact < 50 || tandem < 50 || dp < 500 || heap < 50 || narrowed < 200 || stopped < 50 || endBound < 20 {
		t.Fatal(msg)
	}
	t.Log(msg)
}

func TestExactPlacementPicksScanOrderDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	unique := randSeq(rng, 200)
	cases := []struct {
		name        string
		q, t        []byte
		shift, band int
		wantTS      int
	}{
		{"unique sequence stays on the seed diagonal", unique[50:150], unique, 50, 8, 50},
		{"period 3: furthest in-band multiple of the period", repeatUnit("ACG", 60), repeatUnit("ACG", 150), 30, 8, 24},
		{"period 3, band narrower than the period", repeatUnit("ACG", 60), repeatUnit("ACG", 150), 30, 2, 30},
		{"period 2, diagonals clipped at the target start", repeatUnit("AC", 60), repeatUnit("AC", 150), 6, 8, 0},
		{"homopolymer: the band's first diagonal", repeatUnit("A", 60), repeatUnit("A", 150), 40, 8, 32},
		{"homopolymer at the target start", repeatUnit("A", 60), repeatUnit("A", 150), 0, 8, 0},
		{"period 3 ending at the target end", repeatUnit("ACG", 60), repeatUnit("ACG", 150), 90, 8, 84},
	}
	sc := Scoring{Match: 2, Mismatch: -3, Gap: -1}
	for _, c := range cases {
		ts, ok := exactPlacement(c.q, c.t, c.shift, c.band)
		if !ok {
			t.Fatalf("%s: shortcut not taken", c.name)
		}
		got, want := BandedSW(c.q, c.t, c.shift, c.band, sc), referenceBandedSW(c.q, c.t, c.shift, c.band, sc)
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
		if ts != c.wantTS || got.TStart != c.wantTS || got.Score != 2*len(c.q) {
			t.Errorf("%s: TStart %d (placement %d), score %d; want TStart %d, score %d", c.name, got.TStart, ts, got.Score, c.wantTS, 2*len(c.q))
		}
	}
}

// TestBandCellsClosedForm: every placement, from the band wholly left of
// the target to wholly right of it.
func TestBandCellsClosedForm(t *testing.T) {
	sc := DefaultScoring()
	for n := 0; n <= 14; n++ {
		q := repeatUnit("A", n)
		for tlen := 0; tlen <= n+12; tlen++ {
			tg := repeatUnit("C", tlen) // no match: the oracle only counts
			for band := 1; band <= 16; band++ {
				for shift := -n - band - 1; shift <= tlen+band+1; shift++ {
					got, want := bandCells(n, tlen, shift, band), referenceBandedSW(q, tg, shift, band, sc).Cells
					if got != want {
						t.Fatalf("n %d, target %d, shift %d, band %d: closed form %d, counted %d", n, tlen, shift, band, got, want)
					}
				}
			}
		}
	}
}

func TestBandedSWNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tg := randSeq(rng, 400)
	exact := tg[100:250]
	noisy := append([]byte(nil), exact...)
	noisy[70] = otherBase(noisy[70])
	band, sc := DefaultConfig().Band, DefaultScoring()
	for name, q := range map[string][]byte{"exact placement": exact, "DP": noisy} {
		if n := testing.AllocsPerRun(100, func() { BandedSW(q, tg, 100, band, sc) }); n != 0 {
			t.Errorf("%s: %v allocations per call at band %d", name, n, band)
		}
	}
}

func BenchmarkBandedSW150(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tg := randSeq(rng, 2000)
	q := append([]byte(nil), tg[500:650]...)
	q[40], q[110] = otherBase(q[40]), otherBase(q[110])
	band, sc := DefaultConfig().Band, DefaultScoring()
	var cells int64
	for i := 0; i < b.N; i++ {
		cells += BandedSW(q, tg, 500, band, sc).Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcell/s")
}
