package align

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

// Config controls the seed-and-extend aligner.
type Config struct {
	SeedLen int // seed k-mer length
	// SeedStride samples read seeds every this many bases (≤ 0: SeedLen).
	SeedStride int
	Band       int // SW band half-width
	Scoring    Scoring
	// MinScoreFrac accepts alignments scoring at least this fraction of
	// the *aligned* length, so reads overhanging a contig end (soft
	// clipped) still qualify.
	MinScoreFrac float64
	// MinAlignLen is the minimum aligned length to accept.
	MinAlignLen int
	// MaxSeedHits skips pathologically repetitive seeds.
	MaxSeedHits int
}

// DefaultConfig returns aligner settings for 100–150 bp reads.
func DefaultConfig() Config {
	return Config{
		SeedLen:      17,
		SeedStride:   0,
		Band:         8,
		Scoring:      DefaultScoring(),
		MinScoreFrac: 0.7,
		MinAlignLen:  30,
		MaxSeedHits:  64,
	}
}

// Validate checks config sanity.
func (c *Config) Validate() error {
	if c.SeedLen < 8 || c.SeedLen > 32 {
		return fmt.Errorf("align: seed length %d outside [8,32]", c.SeedLen)
	}
	if c.Band < 1 {
		return fmt.Errorf("align: band %d < 1", c.Band)
	}
	if c.MinScoreFrac <= 0 || c.MinScoreFrac > 1 {
		return fmt.Errorf("align: MinScoreFrac %g outside (0,1]", c.MinScoreFrac)
	}
	if c.MinAlignLen < 10 {
		return fmt.Errorf("align: MinAlignLen %d < 10", c.MinAlignLen)
	}
	return c.Scoring.Validate()
}

// Hit is one read-to-contig alignment.
type Hit struct {
	CtgID int
	Score int
	// Contig span [CtgStart, CtgEnd).
	CtgStart, CtgEnd int
	// Read span [ReadStart, ReadEnd) on the read as aligned (after RC when
	// RC is set).
	ReadStart, ReadEnd int
	// RC reports that the read aligned in reverse-complement orientation.
	RC bool
}

type seedLoc struct {
	ctg int32
	pos int32
}

// Aligner is a seed index over a set of contigs.
type Aligner struct {
	cfg   Config
	ctgs  [][]byte
	seeds map[uint64][]seedLoc
	// cells counts the SW DP cells in the band of every verification since
	// construction, whether or not the host filled them (SWResult.Cells) —
	// the measure of "aln kernel" work for the stage breakdown. swTimeNS
	// accumulates wall nanoseconds inside BandedSW, its exact-placement
	// check included — the "aln kernel" slice of the Fig 2 breakdown. Both
	// are updated atomically so AlignRead may be called from many goroutines.
	cells    atomic.Int64
	swTimeNS atomic.Int64
}

// Cells returns the DP cells in the band of every verification so far,
// whether or not the host filled them.
func (a *Aligner) Cells() int64 { return a.cells.Load() }

// KernelTime returns the accumulated time inside BandedSW.
func (a *Aligner) KernelTime() time.Duration { return time.Duration(a.swTimeNS.Load()) }

// New indexes the contigs.
func New(ctgs [][]byte, cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Aligner{cfg: cfg, ctgs: ctgs, seeds: make(map[uint64][]seedLoc)}
	for ci, ctg := range ctgs {
		kmer.ForEach(ctg, cfg.SeedLen, func(pos int, km kmer.Kmer) {
			h := km.Hash(0)
			a.seeds[h] = append(a.seeds[h], seedLoc{ctg: int32(ci), pos: int32(pos)})
		})
	}
	return a, nil
}

// SeedTask is one banded-SW verification requested by the seeding phase:
// align the (already oriented) read against contig CtgID around diagonal
// Shift. The verification can run on the CPU (VerifyHit) or in bulk on the
// GPU "aln kernel" (internal/gpualign), exactly MetaHipMer's split of
// CPU-side seeding and ADEPT device scoring.
type SeedTask struct {
	CtgID int
	Shift int
	RC    bool
}

// SeedOriented finds the most-voted (contig, diagonal) pair for one
// orientation of a read; ties go to the smaller contig, then the smaller
// diagonal. ok is false when no seed matches.
func (a *Aligner) SeedOriented(seq []byte, isRC bool) (SeedTask, bool) {
	stride := a.cfg.SeedStride
	if stride <= 0 {
		stride = a.cfg.SeedLen
	}
	// One key per vote, ordered by (ctg, shift): the diagonal is signed, so
	// its sign bit is flipped. Sorted, equal votes are adjacent and the
	// first longest run is the winner with its tie-break.
	const signBit = 1 << 31
	var buf [256]uint64
	votes := buf[:0]
	sc := kmer.NewScanner(a.cfg.SeedLen)
	for i, b := range seq {
		pos := i - a.cfg.SeedLen + 1
		if !sc.Push(b) || pos%stride != 0 {
			continue
		}
		locs := a.seeds[sc.Forward().Hash(0)]
		if len(locs) > a.cfg.MaxSeedHits {
			continue
		}
		for _, l := range locs {
			votes = append(votes, uint64(l.ctg)<<32|uint64(uint32(l.pos-int32(pos))^signBit))
		}
	}
	if len(votes) == 0 {
		return SeedTask{}, false
	}
	slices.Sort(votes)
	var best uint64
	bestN, run := 0, 0
	for i, v := range votes {
		if i > 0 && v != votes[i-1] {
			run = 0
		}
		if run++; run > bestN {
			best, bestN = v, run
		}
	}
	return SeedTask{CtgID: int(best >> 32), Shift: int(int32(uint32(best) ^ signBit)), RC: isRC}, true
}

// AcceptSW applies the acceptance thresholds to a completed banded-SW
// result (from either the CPU or the GPU kernel) and converts it to a Hit.
func (a *Aligner) AcceptSW(res SWResult, task SeedTask) (Hit, bool) {
	alignedLen := res.QEnd - res.QStart
	if alignedLen < a.cfg.MinAlignLen || res.Score < int(a.cfg.MinScoreFrac*float64(alignedLen)) {
		return Hit{}, false
	}
	return Hit{
		CtgID:     task.CtgID,
		Score:     res.Score,
		CtgStart:  res.TStart,
		CtgEnd:    res.TEnd,
		ReadStart: res.QStart,
		ReadEnd:   res.QEnd,
		RC:        task.RC,
	}, true
}

// VerifyHit completes a seed task on the CPU.
func (a *Aligner) VerifyHit(seq []byte, task SeedTask) (Hit, bool) {
	swStart := time.Now()
	res := BandedSW(seq, a.ctgs[task.CtgID], task.Shift, a.cfg.Band, a.cfg.Scoring)
	a.swTimeNS.Add(int64(time.Since(swStart)))
	a.cells.Add(res.Cells)
	return a.AcceptSW(res, task)
}

// Band returns the configured band half-width (the GPU kernel needs it).
func (a *Aligner) Band() int { return a.cfg.Band }

// ScoringParams returns the configured scoring.
func (a *Aligner) ScoringParams() Scoring { return a.cfg.Scoring }

// AlignRead finds the best alignment of the read (either orientation)
// against the indexed contigs. ok is false when nothing reaches the score
// threshold.
func (a *Aligner) AlignRead(seq []byte) (Hit, bool) {
	fwd, okF := a.alignOriented(seq, false)
	rc, okR := a.alignOriented(dna.RevComp(seq), true)
	switch {
	case okF && (!okR || fwd.Score >= rc.Score):
		return fwd, true
	case okR:
		return rc, true
	}
	return Hit{}, false
}

// alignOriented seeds and verifies one orientation.
func (a *Aligner) alignOriented(seq []byte, isRC bool) (Hit, bool) {
	task, ok := a.SeedOriented(seq, isRC)
	if !ok {
		return Hit{}, false
	}
	return a.VerifyHit(seq, task)
}

// EndCandidate classifies a hit for local assembly: does the aligned read
// qualify as a candidate for the contig's left or right end? A candidate
// must reach the end zone AND project past the contig end — reads wholly
// interior to the contig carry no extension evidence ("reads that align to
// the ends of contigs are then used for extending", §2.2). A read can
// qualify for both ends of a short contig.
func (a *Aligner) EndCandidate(h Hit, readLen, endZone int) (left, right bool) {
	ctgLen := len(a.ctgs[h.CtgID])
	// Right end: alignment approaches the right end and the read's
	// unaligned tail projects beyond it.
	overhangR := (readLen - h.ReadEnd) - (ctgLen - h.CtgEnd)
	if ctgLen-h.CtgEnd < endZone && overhangR > 0 {
		right = true
	}
	overhangL := h.ReadStart - h.CtgStart
	if h.CtgStart < endZone && overhangL > 0 {
		left = true
	}
	return left, right
}
