package locassm

// Binning (§3.1): the paper sorts contigs into three bins by candidate-read
// count before offloading, so that warps in one kernel launch have
// comparable work and fast contigs don't stall behind slow ones.
//
//	bin 1: zero reads        — returned unchanged, never offloaded
//	bin 2: 1..SmallLimit-1   — small kernel
//	bin 3: ≥ SmallLimit      — large kernel
//
// No engine launches the bins apart: Driver.Run takes every contig with
// reads in one unbinned schedule (DESIGN.md §1). MakeBins measures the bins
// (Fig 3's shares) and BenchmarkAblationBinning prices not binning.
const DefaultSmallLimit = 10

// Bins holds the three §3.1 bins.
type Bins struct {
	Zero  []*CtgWithReads // bin 1
	Small []*CtgWithReads // bin 2
	Large []*CtgWithReads // bin 3
}

// MakeBins splits contigs by candidate-read count. smallLimit ≤ 0 uses
// DefaultSmallLimit.
func MakeBins(ctgs []*CtgWithReads, smallLimit int) Bins {
	if smallLimit <= 0 {
		smallLimit = DefaultSmallLimit
	}
	var b Bins
	for _, c := range ctgs {
		switch n := c.NumReads(); {
		case n == 0:
			b.Zero = append(b.Zero, c)
		case n < smallLimit:
			b.Small = append(b.Small, c)
		default:
			b.Large = append(b.Large, c)
		}
	}
	return b
}

// Total returns the contig count across bins.
func (b *Bins) Total() int { return len(b.Zero) + len(b.Small) + len(b.Large) }

// Fractions returns each bin's share of the total (0 when empty), the
// quantities plotted in Fig 3.
func (b *Bins) Fractions() (zero, small, large float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(len(b.Zero)) / t, float64(len(b.Small)) / t, float64(len(b.Large)) / t
}
