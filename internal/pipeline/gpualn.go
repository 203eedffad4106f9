package pipeline

import (
	"time"

	"mhm2sim/internal/align"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpualign"
	"mhm2sim/internal/par"
	"mhm2sim/internal/simt"
)

// GPU alignment path: CPU-side seeding finds the candidate (read, contig,
// diagonal) tasks, and the device kernel (internal/gpualign, standing in
// for ADEPT) scores them in bulk — the "aln kernel" slice of Fig 2 runs on
// the GPU, as in the paper's MetaHipMer baseline.

// alnTask pairs a seeded verification with the read it came from.
type alnTask struct {
	readIdx int
	seq     []byte // oriented read
	seed    align.SeedTask
	// Target window in contig coordinates.
	winStart int
}

// gpuAlignReads performs seeding (parallel, CPU), batch SW (device), and
// acceptance, returning one best hit per read (miss = ok false).
func gpuAlignReads(dev *simt.Device, aln *align.Aligner, ctgSeqs [][]byte, reads []dna.Read, workers int) ([]align.Hit, []bool, time.Duration, []simt.KernelResult, error) {
	band := aln.Band()

	// Phase A: seeding, both orientations in one roll; the reverse
	// complement is built only for a strand that seeded.
	taskLists := make([][]alnTask, len(reads))
	par.ForEach(workers, len(reads), func(i int) {
		seq := reads[i].Seq
		fwd, rev, okF, okR := aln.SeedStrands(seq)
		if okF {
			taskLists[i] = append(taskLists[i], alnTask{readIdx: i, seq: seq, seed: fwd})
		}
		if okR {
			taskLists[i] = append(taskLists[i], alnTask{readIdx: i, seq: dna.RevComp(seq), seed: rev})
		}
	})

	// Flatten and cut target windows: staging whole contigs per task would
	// blow the device budget; a window of query±band(+slack) suffices and
	// the spans are mapped back afterwards.
	const slack = 8
	var tasks []alnTask
	var gpuTasks []gpualign.Task
	for i := range taskLists {
		for _, t := range taskLists[i] {
			ctg := ctgSeqs[t.seed.CtgID]
			winStart := max(0, t.seed.Shift-band-slack)
			winEnd := min(len(ctg), t.seed.Shift+len(t.seq)+band+slack)
			if winEnd <= winStart {
				continue
			}
			t.winStart = winStart
			tasks = append(tasks, t)
			gpuTasks = append(gpuTasks, gpualign.Task{
				Q:     t.seq,
				T:     ctg[winStart:winEnd],
				Shift: t.seed.Shift - winStart,
			})
		}
	}

	// Phase B: the device kernel.
	kernelStart := time.Now()
	dev.FreeAll()
	defer dev.FreeAll() // the device may be its supplier's: leave nothing on it
	results, kres, err := gpualign.BatchSW(dev, gpuTasks, band, aln.ScoringParams())
	if err != nil {
		return nil, nil, 0, nil, err
	}
	kernelWall := time.Since(kernelStart)

	// Phase C: acceptance and per-read best (same tie-break as AlignRead:
	// forward wins ties, since it is seeded first).
	hits := make([]align.Hit, len(reads))
	found := make([]bool, len(reads))
	for ti, t := range tasks {
		r := results[ti]
		r.TStart += t.winStart
		r.TEnd += t.winStart
		h, ok := aln.AcceptSW(r, t.seed)
		if !ok {
			continue
		}
		if !found[t.readIdx] || h.Score > hits[t.readIdx].Score {
			hits[t.readIdx] = h
			found[t.readIdx] = true
		}
	}
	var kernels []simt.KernelResult
	if len(gpuTasks) > 0 {
		kernels = append(kernels, kres)
	}
	return hits, found, kernelWall, kernels, nil
}
