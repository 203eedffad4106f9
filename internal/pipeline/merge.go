package pipeline

import "mhm2sim/internal/dna"

// mergePairs implements the merge-reads stage: overlapping mates of a pair
// are merged into one longer read (MetaHipMer merges pairs before k-mer
// analysis, Fig 1); non-overlapping pairs contribute both mates unchanged.
func mergePairs(pairs []dna.PairedRead, minOverlap int, maxMismatchFrac float64) []dna.Read {
	out := make([]dna.Read, 0, 2*len(pairs))
	for i := range pairs {
		if merged, ok := mergePair(&pairs[i], minOverlap, maxMismatchFrac); ok {
			out = append(out, merged)
		} else {
			out = append(out, pairs[i].Fwd, pairs[i].Rev)
		}
	}
	return out
}

// mergePair tries to overlap the forward mate's suffix with the
// reverse-complemented reverse mate's prefix, longest overlap first.
func mergePair(p *dna.PairedRead, minOverlap int, maxMismatchFrac float64) (dna.Read, bool) {
	fwd := &p.Fwd
	rcRev := p.Rev.RevComp()

	for ov := min(len(fwd.Seq), len(rcRev.Seq)); ov >= minOverlap; ov-- {
		mmAllowed, mm, off := int(maxMismatchFrac*float64(ov)), 0, len(fwd.Seq)-ov
		for j := 0; j < ov && mm <= mmAllowed; j++ {
			if fwd.Seq[off+j] != rcRev.Seq[j] {
				mm++
			}
		}
		if mm > mmAllowed {
			continue
		}
		// Merge: fwd prefix + overlap (base with higher quality wins) +
		// rcRev suffix.
		seq := make([]byte, 0, off+len(rcRev.Seq))
		qual := make([]byte, 0, off+len(rcRev.Seq))
		seq = append(seq, fwd.Seq[:off]...)
		qual = append(qual, fwd.Qual[:off]...)
		for j := 0; j < ov; j++ {
			if fwd.Qual[off+j] >= rcRev.Qual[j] {
				seq = append(seq, fwd.Seq[off+j])
				qual = append(qual, fwd.Qual[off+j])
			} else {
				seq = append(seq, rcRev.Seq[j])
				qual = append(qual, rcRev.Qual[j])
			}
		}
		seq = append(seq, rcRev.Seq[ov:]...)
		qual = append(qual, rcRev.Qual[ov:]...)
		return dna.Read{ID: fwd.ID + ".merged", Seq: seq, Qual: qual}, true
	}
	return dna.Read{}, false
}
