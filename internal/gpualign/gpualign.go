// Package gpualign implements the pipeline's "aln kernel" on the simt
// device, playing the role ADEPT (Awan et al. 2020 [3]) plays inside
// MetaHipMer: CPU-side seeding finds candidate (read, contig, diagonal)
// tasks, and a GPU kernel computes the banded Smith-Waterman scores in
// bulk — one alignment per warp, the band spread across the lanes, the
// within-row gap chain resolved with a shuffle-based max-plus scan, and
// the query staged in shared memory.
//
// A forward pass finds the best score and its end cell; a reverse pass
// over the reversed prefixes recovers the start cell, exactly as ADEPT
// does. Results are verified against align.BandedSW in the tests.
package gpualign

import (
	"fmt"

	"mhm2sim/internal/align"
	"mhm2sim/internal/simt"
)

// MaxBand is the largest supported band half-width: the band (2B+1 cells)
// must fit in one warp.
const MaxBand = (simt.WarpSize - 2) / 2 // 15

// Task is one banded alignment to compute.
type Task struct {
	Q, T  []byte
	Shift int
}

// BatchSW aligns every task on the device and returns per-task results
// (score, spans, DP cells) plus the kernel characterization.
func BatchSW(dev *simt.Device, tasks []Task, band int, sc align.Scoring) ([]align.SWResult, simt.KernelResult, error) {
	if band < 1 || band > MaxBand {
		return nil, simt.KernelResult{}, fmt.Errorf("gpualign: band %d outside [1,%d]", band, MaxBand)
	}
	if err := sc.Validate(); err != nil {
		return nil, simt.KernelResult{}, err
	}
	if len(tasks) == 0 {
		return nil, simt.KernelResult{}, nil
	}

	// Stage sequences in device arenas (8-byte slack for block gathers).
	var qOffs, tOffs []int
	qTotal, tTotal := 0, 0
	for _, task := range tasks {
		qOffs = append(qOffs, qTotal)
		tOffs = append(tOffs, tTotal)
		qTotal += len(task.Q)
		tTotal += len(task.T)
	}
	qBase, err := dev.Malloc(int64(qTotal + 8))
	if err != nil {
		return nil, simt.KernelResult{}, err
	}
	tBase, err := dev.Malloc(int64(tTotal + 8))
	if err != nil {
		return nil, simt.KernelResult{}, err
	}
	for i, task := range tasks {
		dev.MemcpyHtoD(qBase+simt.Ptr(qOffs[i]), task.Q)
		dev.MemcpyHtoD(tBase+simt.Ptr(tOffs[i]), task.T)
	}
	// Output records: score, qs, qe, ts, te (5×u32).
	outBase, err := dev.Malloc(int64(len(tasks)) * 20)
	if err != nil {
		return nil, simt.KernelResult{}, err
	}

	results := make([]align.SWResult, len(tasks))
	res, err := dev.Launch(simt.KernelConfig{
		Name:  "adept_banded_sw",
		Warps: len(tasks),
	}, func(w *simt.Warp) {
		i := w.ID
		task := tasks[i]
		r := alignWarp(w, task, qBase+simt.Ptr(qOffs[i]), tBase+simt.Ptr(tOffs[i]), band, sc)
		results[i] = r
		// Lane 0 writes the output record.
		lane0 := simt.LaneMask(0)
		var a, v simt.Vec
		for f, val := range []int{r.Score, r.QStart, r.QEnd, r.TStart, r.TEnd} {
			a[0] = uint64(outBase) + uint64(20*i+4*f)
			v[0] = uint64(uint32(val))
			w.StoreGlobal(lane0, &a, 4, &v)
		}
	})
	if err != nil {
		return nil, simt.KernelResult{}, err
	}
	return results, res, nil
}

// alignWarp runs the forward pass, then the reverse pass to pin the start.
func alignWarp(w *simt.Warp, task Task, qPtr, tPtr simt.Ptr, band int, sc align.Scoring) align.SWResult {
	score, qe, te, cells := forwardPass(w, task.Q, task.T, qPtr, tPtr, task.Shift, band, sc, false, 0, 0)
	out := align.SWResult{Score: score, QEnd: qe, TEnd: te, Cells: cells}
	if score <= 0 {
		return align.SWResult{Cells: cells}
	}
	// Reverse pass over the reversed prefixes q[:qe], t[:te]; its end cell
	// is the start cell in forward coordinates.
	revShift := (te - qe) - task.Shift
	_, rqe, rte, rcells := forwardPass(w, task.Q, task.T, qPtr, tPtr, revShift, band, sc, true, qe, te)
	out.QStart = qe - rqe
	out.TStart = te - rte
	out.Cells += rcells
	return out
}

// forwardPass computes one banded SW sweep. When rev is set, the logical
// sequences are the reversed prefixes q[:qLim] and t[:tLim] (indices are
// mirrored at load time; no extra staging needed).
func forwardPass(w *simt.Warp, q, t []byte, qPtr, tPtr simt.Ptr, shift, band int, sc align.Scoring, rev bool, qLim, tLim int) (best, bestQEnd, bestTEnd int, cells int64) {
	qLen, tLen := len(q), len(t)
	if rev {
		qLen, tLen = qLim, tLim
	}
	if qLen == 0 || tLen == 0 {
		return 0, 0, 0, 0
	}
	width := 2*band + 1
	var bandMask simt.Mask
	for lane := 0; lane < width; lane++ {
		bandMask |= simt.LaneMask(lane)
	}

	// Stage the query into shared memory with coalesced global loads — the
	// ADEPT trick that keeps the inner loop off global memory.
	for off := 0; off < qLen; off += simt.WarpSize {
		var m simt.Mask
		var ga, so simt.Vec
		for lane := 0; lane < simt.WarpSize && off+lane < qLen; lane++ {
			m |= simt.LaneMask(lane)
			ga[lane] = uint64(qPtr) + uint64(logical(off+lane, qLen, len(q), rev))
			so[lane] = uint64(off + lane)
		}
		var loaded simt.Vec
		w.LoadGlobal(m, &ga, 1, &loaded)
		w.StoreShared(m, &so, 1, &loaded)
	}

	gap := -sc.Gap // positive penalty
	var prev [simt.WarpSize]int
	bestV := 0
	for i := 0; i < qLen; i++ {
		// Broadcast q[i] from shared memory.
		so := simt.Splat(uint64(i))
		qv := w.LoadShared(bandMask, &so, 1)
		qb := byte(qv[0])

		// Target bytes per lane (uncoalesced gather: one per band cell).
		var active simt.Mask
		var ta simt.Vec
		var js [simt.WarpSize]int
		for lane := 0; lane < width; lane++ {
			j := i + shift + (lane - band)
			js[lane] = j
			if j >= 0 && j < tLen {
				active |= simt.LaneMask(lane)
				ta[lane] = uint64(tPtr) + uint64(logical(j, tLen, len(t), rev))
			}
		}
		if active == 0 {
			for l := range prev {
				prev[l] = 0
			}
			continue
		}
		cells += int64(active.Count())
		var tv simt.Vec
		w.LoadGlobal(active, &ta, 1, &tv)

		// Phase 1: diag + up (shuffle from the previous row).
		var prevVec simt.Vec
		for lane := 0; lane < width; lane++ {
			prevVec[lane] = uint64(int64(prev[lane]) + 1<<30) // bias to keep non-negative
		}
		upVec := w.ShflDown(bandMask, &prevVec, 1)
		w.ExecN(simt.IInt, active, 4) // substitution + two maxes + clamp

		var cur [simt.WarpSize]int
		for lane := 0; lane < width; lane++ {
			if !active.Has(lane) {
				cur[lane] = 0
				continue
			}
			s := sc.Mismatch
			if byte(tv[lane]) == qb {
				s = sc.Match
			}
			diag := prev[lane]
			v := diag + s
			if lane+1 < width {
				if u := int(int64(upVec[lane])-1<<30) - gap; u > v {
					v = u
				}
			}
			if v < 0 {
				v = 0
			}
			cur[lane] = v
		}

		// Phase 2: the within-row gap chain via a max-plus Kogge-Stone
		// scan: cur[w] = max_k≤w (cur[k] − gap·(w−k)).
		for delta := 1; delta < width; delta *= 2 {
			var vec simt.Vec
			for lane := 0; lane < width; lane++ {
				vec[lane] = uint64(int64(cur[lane]) + 1<<30)
			}
			shifted := w.ShflUp(bandMask, &vec, delta)
			w.Exec(simt.IInt, bandMask)
			for lane := width - 1; lane >= delta; lane-- {
				if v := int(int64(shifted[lane])-1<<30) - gap*delta; v > cur[lane] {
					cur[lane] = v
				}
			}
		}
		// Clamp out-of-range cells and track the best.
		for lane := 0; lane < width; lane++ {
			if !active.Has(lane) {
				cur[lane] = 0
				continue
			}
			if cur[lane] > bestV {
				bestV = cur[lane]
				bestQEnd = i + 1
				bestTEnd = js[lane] + 1
			}
		}
		// Warp-wide max for the running best (costed like the real kernel).
		var bv simt.Vec
		for lane := 0; lane < width; lane++ {
			bv[lane] = uint64(cur[lane])
		}
		w.ReduceMax(bandMask, &bv)

		prev = cur
	}
	return bestV, bestQEnd, bestTEnd, cells
}

// logical maps a logical index to the physical offset, mirroring when the
// pass runs over reversed prefixes.
func logical(idx, lim, physLen int, rev bool) int {
	if !rev {
		return idx
	}
	_ = physLen
	return lim - 1 - idx
}
