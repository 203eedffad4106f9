// Package quality evaluates assemblies against known truth genomes —
// contiguity statistics (N50/NG50, totals) and correctness (genome
// fraction, mismatch rate, misassembly detection by split alignment), in
// the spirit of the metaQUAST-style evaluations the MetaHipMer papers use
// to show that local assembly and scaffolding improve assemblies without
// introducing errors.
package quality

import (
	"fmt"
	"sort"
	"strings"

	"mhm2sim/internal/align"
	"mhm2sim/internal/dna"
)

// ContigStats summarizes contiguity.
type ContigStats struct {
	Count      int
	TotalBases int64
	Longest    int
	N50        int
	// NG50 is the N50 against the true genome size (0 when unknown).
	NG50 int
	// AuN is the area-under-the-Nx-curve, a length-weighted mean contig
	// length that is robust to the N50's step behaviour.
	AuN float64
}

// Stats computes contiguity statistics. genomeSize may be 0 (no NG50).
func Stats(seqs [][]byte, genomeSize int64) ContigStats {
	lens := make([]int, len(seqs))
	for i, s := range seqs {
		lens[i] = len(s)
	}
	return LenStats(lens, genomeSize)
}

// LenStats is Stats over the contig lengths alone; it sorts lens longest
// first in place.
func LenStats(lens []int, genomeSize int64) ContigStats {
	st := ContigStats{Count: len(lens)}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	for _, l := range lens {
		st.TotalBases += int64(l)
	}
	if len(lens) > 0 {
		st.Longest = lens[0]
	}
	var run int64
	for _, l := range lens {
		run += int64(l)
		st.AuN += float64(l) * float64(l)
		if st.N50 == 0 && run*2 >= st.TotalBases {
			st.N50 = l
		}
		if st.NG50 == 0 && genomeSize > 0 && run*2 >= genomeSize {
			st.NG50 = l
		}
	}
	if st.TotalBases > 0 {
		st.AuN /= float64(st.TotalBases)
	}
	return st
}

// Config controls truth-based evaluation.
type Config struct {
	// Align configures the contig-to-truth aligner.
	Align align.Config
	// MinIdentity is the per-segment identity to count aligned bases.
	MinIdentity float64
	// ChunkLen is the window length contigs are probed with (long contigs
	// are evaluated in chunks so misjoins surface as split alignments).
	ChunkLen int
}

// DefaultConfig returns evaluation defaults.
func DefaultConfig() Config {
	a := align.DefaultConfig()
	a.MinScoreFrac = 0.6
	return Config{Align: a, MinIdentity: 0.95, ChunkLen: 500}
}

// Report is a truth-based evaluation of one assembly.
type Report struct {
	Contigs ContigStats

	// AlignedBases counts assembly bases placed on some genome at or
	// above MinIdentity; UnalignedBases the remainder.
	AlignedBases   int64
	UnalignedBases int64

	// GenomeFraction is the fraction of truth bases covered by at least
	// one aligned chunk.
	GenomeFraction float64

	// Mismatches counts substitution differences inside aligned chunks;
	// MismatchRate normalizes per aligned base.
	Mismatches   int64
	MismatchRate float64

	// Misassemblies counts contigs whose consecutive chunks align to
	// different genomes or to wildly inconsistent positions — the classic
	// misjoin signature.
	Misassemblies int
}

// Evaluate aligns each assembly sequence against the truth genomes in
// chunks and aggregates the report. Scaffolding gaps ('N') are skipped.
func Evaluate(assembly [][]byte, genomes [][]byte, cfg Config) (*Report, error) {
	if cfg.ChunkLen < 100 {
		return nil, fmt.Errorf("quality: chunk length %d too small", cfg.ChunkLen)
	}
	var genomeSize int64
	for _, g := range genomes {
		genomeSize += int64(len(g))
	}
	rep := &Report{Contigs: Stats(assembly, genomeSize)}

	aln, err := align.New(genomes, cfg.Align)
	if err != nil {
		return nil, err
	}
	covered := make([][]bool, len(genomes))
	for i, g := range genomes {
		covered[i] = make([]bool, len(g))
	}

	type placement struct {
		genome int
		start  int
		rc     bool
		ok     bool
	}

	for _, seq := range assembly {
		var prev placement
		first := true
		for off := 0; off < len(seq); off += cfg.ChunkLen {
			end := off + cfg.ChunkLen
			if end > len(seq) {
				end = len(seq)
			}
			chunk := trimN(seq[off:end])
			if len(chunk) < cfg.ChunkLen/4 {
				continue
			}
			h, ok := aln.AlignRead(chunk)
			var cur placement
			if ok {
				alignedLen := h.CtgEnd - h.CtgStart
				identity := float64(h.Score+alignedLen) / (2 * float64(alignedLen))
				if identity >= cfg.MinIdentity {
					cur = placement{genome: h.CtgID, start: h.CtgStart, rc: h.RC, ok: true}
					rep.AlignedBases += int64(alignedLen)
					// Score = matches − mismatches − gaps with unit
					// scoring, so mismatch-ish count = (len − score)/2.
					rep.Mismatches += int64(alignedLen-h.Score) / 2
					for p := h.CtgStart; p < h.CtgEnd; p++ {
						covered[h.CtgID][p] = true
					}
				}
			}
			if !cur.ok {
				rep.UnalignedBases += int64(len(chunk))
			}
			// Misjoin check between consecutive placed chunks.
			if cur.ok && !first && prev.ok {
				if cur.genome != prev.genome || cur.rc != prev.rc ||
					absInt(cur.start-prev.start) > 4*cfg.ChunkLen {
					rep.Misassemblies++
				}
			}
			if cur.ok || !first {
				prev, first = cur, false
			}
		}
	}

	var coveredBases int64
	for i := range covered {
		for _, c := range covered[i] {
			if c {
				coveredBases++
			}
		}
	}
	if genomeSize > 0 {
		rep.GenomeFraction = float64(coveredBases) / float64(genomeSize)
	}
	if rep.AlignedBases > 0 {
		rep.MismatchRate = float64(rep.Mismatches) / float64(rep.AlignedBases)
	}
	return rep, nil
}

// trimN removes leading/trailing scaffold gaps and returns the chunk with
// interior Ns dropped (they would only hurt the alignment score).
func trimN(chunk []byte) []byte {
	out := make([]byte, 0, len(chunk))
	for _, b := range chunk {
		if dna.IsACGT(b) {
			out = append(out, b)
		}
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the report as an aligned summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contigs           %d\n", r.Contigs.Count)
	fmt.Fprintf(&b, "total bases       %d\n", r.Contigs.TotalBases)
	fmt.Fprintf(&b, "longest           %d\n", r.Contigs.Longest)
	fmt.Fprintf(&b, "N50 / NG50        %d / %d\n", r.Contigs.N50, r.Contigs.NG50)
	fmt.Fprintf(&b, "auN               %.0f\n", r.Contigs.AuN)
	fmt.Fprintf(&b, "genome fraction   %.2f%%\n", 100*r.GenomeFraction)
	fmt.Fprintf(&b, "aligned bases     %d (%d unaligned)\n", r.AlignedBases, r.UnalignedBases)
	fmt.Fprintf(&b, "mismatch rate     %.4f%%\n", 100*r.MismatchRate)
	fmt.Fprintf(&b, "misassemblies     %d\n", r.Misassemblies)
	return b.String()
}
