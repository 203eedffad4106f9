// Package align implements the pipeline's alignment stage: a seed index
// over contigs plus banded Smith-Waterman verification (the role ADEPT's
// GPU kernel plays in MetaHipMer), used to find the candidate reads that
// local assembly extends contigs with, and to anchor read pairs for
// scaffolding.
package align

import (
	"bytes"
	"fmt"
)

// Scoring holds the Smith-Waterman parameters.
type Scoring struct {
	Match    int // > 0
	Mismatch int // < 0
	Gap      int // < 0, linear gap penalty
}

// DefaultScoring mirrors the simple scoring MetaHipMer's aligner uses.
func DefaultScoring() Scoring { return Scoring{Match: 1, Mismatch: -1, Gap: -1} }

// SWResult is a local alignment between a query and a target window.
type SWResult struct {
	Score int
	// Query/Target spans are half-open [start, end).
	QStart, QEnd int
	TStart, TEnd int
	// Cells is the number of DP cells in the band and inside the target
	// (the "aln kernel" work), whether or not the host filled them: the
	// exact-placement shortcut reports the size of the banded problem it
	// skipped, so work counts do not depend on which branch ran.
	Cells int64
}

// stackBand is the widest band whose two DP rows live on the stack.
const stackBand = 32

// BandedSW computes a banded local (Smith-Waterman) alignment between query
// and target, restricting DP cells to |j − i − shift| ≤ band, where shift
// aligns the expected diagonal. It returns the best-scoring local
// alignment with its spans, recovered without a traceback matrix by
// propagating each cell's local start; ties go to the diagonal move, then
// up, then left, and to the first cell in row-major scan order. The scoring
// must satisfy Validate, and len(query)·Match must fit an int32.
func BandedSW(query, target []byte, shift, band int, sc Scoring) SWResult {
	if band < 1 {
		band = 1
	}
	n, m := len(query), len(target)
	res := SWResult{Cells: bandCells(n, m, shift, band)}
	if ts, ok := exactPlacement(query, target, shift, band); ok {
		res.Score, res.QEnd = n*sc.Match, n
		res.TStart, res.TEnd = ts, ts+n
		return res
	}

	// A row holds cell w ∈ [0, width) at index w+1 before a sentinel that
	// stays zero for the last cell's up move. A zero cell passes on nothing —
	// a gap move out of it is negative, and a negative best is reset to a
	// fresh start — so sentinels, cells a row did not fill and the all-zero
	// row above row 0 need no special case.
	width := 2*band + 1
	row := width + 2
	var scoreArr [2 * (2*stackBand + 3)]int32
	var startArr [2 * (2*stackBand + 3)]uint64
	scores, starts := scoreArr[:], startArr[:]
	if band > stackBand {
		scores, starts = make([]int32, 2*row), make([]uint64, 2*row)
	}
	prevS, curS := scores[:row], scores[row:2*row]
	prevP, curP := starts[:row], starts[row:2*row] // qs<<32 | ts of the local start

	match, mismatch, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	// Cells whose score plus Match per step left stays below floor are dead.
	floor := int(diagonalScore(query, target, shift, match, mismatch))
	var (
		bestScore          int32
		bestStart, bestEnd uint64 // i<<32 | j of the alignment's first and last cell
		liveLo, liveHi     int    // the live cells of the row above
		heldLo, heldHi     int    // the cells the row above wrote
	)
	for i := range query {
		// Cell w of this row faces target[base+w]; [lo, hi) are the cells
		// inside the target. Once a fresh start in the first is dead, a live
		// cell has a live neighbour above or to its left.
		base := i + shift - band
		lo, hi := max(0, -base), min(width, m-base)
		pruned := sc.Match*(1+min(n-1-i, m-1-base-lo)) < floor
		if pruned {
			lo = max(lo, liveLo-1)
		}
		first, last, from, end := -1, -1, 0, 0
		if lo < hi {
			cnt := hi - lo
			// A cell's up move comes from the cell that the next one has on
			// its diagonal, so each cell of the row above is loaded once.
			qi := query[i]
			tRow := target[base+lo:][:cnt]
			aboveS, aboveP := prevS[lo+2:][:cnt], prevP[lo+2:][:cnt]
			outS, outP := curS[lo+1:][:cnt], curP[lo+1:][:cnt]
			diagS, diagP := prevS[lo+1], prevP[lo+1]
			leftS, leftP := int32(0), uint64(0)
			here := uint64(i)<<32 | uint64(base+lo)
			// The rows below and the target bases right of a cell bound its steps.
			rowThr := floor - sc.Match*(n-1-i)
			endThr := floor - sc.Match*(m-1-base-lo)
			k := 0
			for ; k < cnt; k++ {
				upS, upP := aboveS[k], aboveP[k]
				s := mismatch
				if qi == tRow[k] {
					s = match
				}
				v, p := diagS+s, diagP
				if diagS == 0 {
					p = here
				}
				if u := upS + gap; u > v {
					v, p = u, upP
				}
				if l := leftS + gap; l > v {
					v, p = l, leftP
				}
				if v < 0 {
					v, p = 0, here
				}
				outS[k], outP[k] = v, p
				if v > bestScore {
					bestScore, bestStart, bestEnd = v, p, here
				}
				if int(v) >= max(rowThr, endThr) {
					if first < 0 {
						first = k
					}
					last = k
				} else if pruned && lo+k >= liveHi {
					k++
					break // no neighbour above is live, and this one is dead
				}
				endThr += sc.Match
				diagS, diagP, leftS, leftP = upS, upP, v, p
				here++
			}
			from, end = lo, lo+k
		}
		clear(prevS[heldLo+1 : heldHi+1]) // it becomes the next row's store
		heldLo, heldHi = from, end
		prevS, curS, prevP, curP = curS, prevS, curP, prevP
		if first < 0 && pruned {
			break // nothing is left to extend, and the rows below are pruned too
		}
		liveLo, liveHi = lo+first, lo+last
	}
	if bestScore > 0 {
		res.Score = int(bestScore)
		res.QStart, res.QEnd = int(bestStart>>32), int(bestEnd>>32)+1
		res.TStart, res.TEnd = int(uint32(bestStart)), int(uint32(bestEnd))+1
	}
	return res
}

// diagonalScore is the best ungapped segment score on the seed diagonal
// j = i + shift: an in-band path, so no more than the optimum.
func diagonalScore(query, target []byte, shift int, match, mismatch int32) (best int32) {
	var run int32
	for i := max(0, -shift); i < min(len(query), len(target)-shift); i++ {
		s := mismatch
		if query[i] == target[i+shift] {
			s = match
		}
		run = max(run, 0) + s
		best = max(best, run)
	}
	return best
}

// exactPlacement reports whether the query sits in the target, whole and
// without a mismatch, on the seed diagonal, and if so where BandedSW's
// alignment starts in the target. A row adds at most one match, so only a
// gap-free all-match diagonal that starts in row 0 scores len(query)·Match,
// and only in the last row; the scan meets the smallest in-band diagonal
// first, so an equally exact shift−d (a tandem repeat) wins over shift. A
// query overhanging a target end is left to the DP: with the overhang rows
// a gapped path can tie the diagonal.
func exactPlacement(query, target []byte, shift, band int) (tStart int, ok bool) {
	n := len(query)
	if n == 0 || shift < 0 || shift+n > len(target) || !bytes.Equal(query, target[shift:shift+n]) {
		return 0, false
	}
	for ts := max(0, shift-band); ts < shift; ts++ {
		if bytes.Equal(query, target[ts:ts+n]) {
			return ts, true
		}
	}
	return shift, true
}

// bandCells is the number of in-band, in-target cells of an n-row problem.
// Row i holds clamp(u+tlen−i) − clamp(u−i) of them, with u = band−shift and
// clamp(a) = min(W, max(0, a)) = max(0, a) − max(0, a−W): four ramps.
func bandCells(n, tlen, shift, band int) int64 {
	u, w := band-shift, 2*band+1
	return ramp(u+tlen, n) - ramp(u+tlen-w, n) - ramp(u, n) + ramp(u-w, n)
}

// ramp sums max(0, a−i) over i ∈ [0, n).
func ramp(a, n int) int64 {
	m := int64(min(a, n))
	if m <= 0 {
		return 0
	}
	return m * (2*int64(a) - m + 1) / 2
}

// Validate checks scoring sanity.
func (s Scoring) Validate() error {
	if s.Match <= 0 || s.Mismatch >= 0 || s.Gap >= 0 {
		return fmt.Errorf("align: scoring must have match>0, mismatch<0, gap<0")
	}
	return nil
}
