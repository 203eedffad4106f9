package pipeline

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"mhm2sim/internal/align"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/par"
	"mhm2sim/internal/scaffold"
)

// alignCandidates aligns every merged read against the round's contigs and
// buckets end-zone hits into per-contig candidate-read lists. It also
// returns the share of its own wall time spent in the aln kernel (banded
// Smith-Waterman), by which the driver splits the stage between the
// aln-kernel and alignment categories.
func alignCandidates(reads []dna.Read, ctgs []dbg.Contig, cfg *Config, workers int) ([]*locassm.CtgWithReads, float64, error) {
	ctgSeqs := make([][]byte, len(ctgs))
	withReads := make([]*locassm.CtgWithReads, len(ctgs))
	for i := range ctgs {
		ctgSeqs[i] = ctgs[i].Seq
		withReads[i] = &locassm.CtgWithReads{ID: ctgs[i].ID, Seq: ctgs[i].Seq, Depth: ctgs[i].Depth}
	}
	t0 := time.Now()
	aln, err := align.New(ctgSeqs, cfg.Align)
	if err != nil {
		return nil, 0, err
	}

	// How close to a contig end an alignment must come for the read to
	// become a local-assembly candidate: the longest read plus 50.
	endZone := 50
	for i := range reads {
		endZone = max(endZone, len(reads[i].Seq)+50)
	}

	classify := func(h align.Hit, read dna.Read) {
		left, right := aln.EndCandidate(h, len(read.Seq), endZone)
		if !left && !right {
			return
		}
		r := read
		if h.RC {
			r = r.RevComp()
		}
		if left {
			withReads[h.CtgID].LeftReads = append(withReads[h.CtgID].LeftReads, r)
		}
		if right {
			withReads[h.CtgID].RightReads = append(withReads[h.CtgID].RightReads, r)
		}
	}

	// Reads align in parallel into hits/found by read index; the
	// classification below is sequential.
	hits, found := make([]align.Hit, len(reads)), make([]bool, len(reads))
	// Aligner.KernelTime is summed over concurrent workers, so it is CPU
	// time and can exceed the stage's wall; the same sum over whole
	// AlignRead calls turns it into a share of the parallel section.
	var busyNS atomic.Int64
	parStart := time.Now()
	par.ForEach(workers, len(reads), func(i int) {
		readStart := time.Now()
		hits[i], found[i] = aln.AlignRead(reads[i].Seq)
		busyNS.Add(int64(time.Since(readStart)))
	})
	var kernelWall time.Duration // wall time of this stage spent in the aln kernel
	if busy := busyNS.Load(); busy > 0 {
		kernelWall = time.Duration(float64(time.Since(parStart)) * float64(aln.KernelTime()) / float64(busy))
	}
	for i := range reads {
		if found[i] {
			classify(hits[i], reads[i])
		}
	}

	// Candidate lists go to local assembly stably sorted by read ID, then sequence.
	byIDSeq := func(a, b dna.Read) int { return cmp.Or(cmp.Compare(a.ID, b.ID), bytes.Compare(a.Seq, b.Seq)) }
	for _, c := range withReads {
		slices.SortStableFunc(c.LeftReads, byIDSeq)
		slices.SortStableFunc(c.RightReads, byIDSeq)
	}

	var kernelShare float64
	if kernelWall > 0 { // then the stage's wall, which contains it, is too
		kernelShare = float64(kernelWall) / float64(time.Since(t0))
	}
	return withReads, kernelShare, nil
}

// runScaffolding aligns the original pairs against the final contigs,
// optionally estimates the library insert size from proper pairs, and
// joins spanning pairs into scaffolds.
func runScaffolding(pairs []dna.PairedRead, ctgs []dbg.Contig, cfg *Config, workers int) ([]scaffold.Scaffold, int, error) {
	ctgSeqs, lens := make([][]byte, len(ctgs)), make([]int, len(ctgs))
	for i := range ctgs {
		ctgSeqs[i], lens[i] = ctgs[i].Seq, len(ctgs[i].Seq)
	}
	aln, err := align.New(ctgSeqs, cfg.Align)
	if err != nil {
		return nil, 0, err
	}

	// Phase 1: align both mates of every pair.
	type pairHits struct {
		h1, h2 align.Hit
		ok     bool
	}
	hits := make([]pairHits, len(pairs))
	par.ForEach(workers, len(pairs), func(i int) {
		h1, ok1 := aln.AlignRead(pairs[i].Fwd.Seq)
		h2, ok2 := aln.AlignRead(pairs[i].Rev.Seq)
		hits[i] = pairHits{h1: h1, h2: h2, ok: ok1 && ok2}
	})

	// Phase 2: insert-size estimation from proper (same-contig) pairs.
	insertMean := cfg.Scaffold.InsertMean
	estimated := 0
	if cfg.EstimateInsert {
		var obs []int
		for i := range hits {
			if !hits[i].ok {
				continue
			}
			if ins, ok := scaffold.ProperPairInsert(hits[i].h1, hits[i].h2); ok {
				obs = append(obs, ins)
			}
		}
		if mean, _, ok := scaffold.EstimateInsert(obs, 50); ok {
			insertMean, estimated = mean, mean
		}
	}

	// Phase 3: votes and joining.
	var all []scaffold.Link
	for i := range hits {
		if !hits[i].ok {
			continue
		}
		if v, ok := scaffold.PairVote(hits[i].h1, hits[i].h2, lens, insertMean); ok {
			all = append(all, v)
		}
	}
	scfg := cfg.Scaffold
	scfg.InsertMean = insertMean
	scs, err := scaffold.Build(ctgSeqs, all, scfg)
	return scs, estimated, err
}

// writeOutputs serializes contigs and scaffolds as FASTA, returning bytes
// written — the file I/O stage.
func writeOutputs(w io.Writer, res *Result) (int64, error) {
	names := make([]string, 0, len(res.Contigs)+len(res.Scaffolds))
	seqs := make([][]byte, 0, cap(names))
	for _, c := range res.Contigs {
		names = append(names, fmt.Sprintf("contig_%d depth=%.2f", c.ID, c.Depth))
		seqs = append(seqs, c.Seq)
	}
	for i, s := range res.Scaffolds {
		names = append(names, fmt.Sprintf("scaffold_%d", i))
		seqs = append(seqs, s.Seq)
	}
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, names, seqs, 80); err != nil {
		return 0, err
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// WriteFASTAOutputs writes the final contigs and scaffolds to w (used by
// the command-line tools).
func WriteFASTAOutputs(w io.Writer, res *Result) error {
	_, err := writeOutputs(w, res)
	return err
}
