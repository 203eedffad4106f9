package locassm

import (
	"math/bits"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// batchDev holds the device base addresses of one staged batch's arenas.
type batchDev struct {
	packBase simt.Ptr
	seqBase  simt.Ptr
	qualBase simt.Ptr
	tables   simt.Ptr
	visited  simt.Ptr
	walks    simt.Ptr
	outs     simt.Ptr
}

// kernelOut is the per-item output record layout: extLen u32 @0, state u8
// @4, iters u8 @5 (16-byte stride).
const outStride = 16

// walkScratch is the lane-local offset of the walk's per-thread sequence
// mirror (below it sits the hash-staging scratch used by gpuht).
const walkScratch = 64

// localBytesPerLane sizes each lane's private local memory: hash staging
// plus the walk mirror.
func localBytesPerLane(cfg *Config) int {
	return walkScratch + cfg.MaxMer + cfg.MaxWalkLen + 16
}

// extensionKernelV2 returns the per-warp kernel body for a batch of the
// warp-per-table kernel (§3.3, Fig 5): warp w.ID owns item w.ID and runs
// the full §2.3 loop — clear tables, build the k-mer table from the
// candidate reads warp-cooperatively (Algorithm 1), mer-walk on lane 0
// (Algorithm 2), broadcast the walk state to the warp, shift k, repeat.
//
// A table-full or non-convergence fault aborts the warp's item and lands
// in errs[w.ID] — a per-warp slot, so the sink is race-free — for the
// driver to pick up after the launch and re-split the batch.
func extensionKernelV2(plan *batchPlan, dev batchDev, cfg *Config, errs []error) func(w *simt.Warp) {
	return func(w *simt.Warp) {
		p := plan.items[w.ID]
		tailLen := len(p.item.tail)
		walkBase := dev.walks + simt.Ptr(p.walkOff)
		outBase := dev.outs + simt.Ptr(p.outOff)

		mer := min(cfg.StartMer, tailLen)
		lane0 := simt.LaneMask(0)
		if mer < cfg.MinMer {
			// Write a complete zero record: the arena may hold stale bytes
			// from an earlier batch.
			var a, v simt.Vec
			a[0] = uint64(outBase)
			w.StoreGlobal(lane0, &a, 4, &v)
			a[0] = uint64(outBase) + 4
			w.StoreGlobal(lane0, &a, 2, &v)
			return
		}

		extLen := 0
		shift := 0
		state := WalkDeadEnd
		iters := 0
		for iter := 0; iter < cfg.MaxIters; iter++ {
			iters++
			table := gpuht.Table{
				Base:     dev.tables + simt.Ptr(p.tableOff),
				Capacity: uint64(p.tableSlots),
				SeqBase:  dev.seqBase,
				PackBase: dev.packBase,
				K:        mer,
			}
			vis := gpuht.Visited{
				Base:     dev.visited + simt.Ptr(p.visitedOff),
				Capacity: uint64(p.visitedSlots),
				BufBase:  walkBase,
				K:        mer,
			}
			gpuht.ClearEntriesWarp(w, table.Base, p.tableSlots)
			gpuht.ClearVisitedWarp(w, vis.Base, p.visitedSlots)

			if err := buildTableV2(w, table, p, dev, cfg); err != nil {
				errs[w.ID] = err
				return
			}
			w.SyncWarp(simt.FullMask)

			var werr error
			state, werr = walkLane0(w, table, vis, walkBase, tailLen, &extLen, mer, cfg)
			if werr != nil {
				errs[w.ID] = werr
				return
			}

			// Lane 0 broadcasts the walk state so the warp agrees on
			// whether to rebuild at a shifted k (§3.4).
			var stVec simt.Vec
			stVec[0] = uint64(state)
			w.Shfl(simt.FullMask, &stVec, 0)
			w.Exec(simt.ICtrl, simt.FullMask)

			next, nextShift, done := nextMer(cfg, mer, shift, state)
			if done || next > tailLen+extLen {
				break
			}
			mer, shift = next, nextShift
		}

		// Lane 0 writes the output record.
		var a, v simt.Vec
		a[0] = uint64(outBase)
		v[0] = uint64(extLen)
		w.StoreGlobal(lane0, &a, 4, &v)
		a[0] = uint64(outBase) + 4
		v[0] = uint64(state)
		w.StoreGlobal(lane0, &a, 1, &v)
		a[0] = uint64(outBase) + 5
		v[0] = uint64(iters)
		w.StoreGlobal(lane0, &a, 1, &v)
	}
}

// buildTableV2 implements Algorithm 1 warp-cooperatively: the warp's lanes
// map to contiguous k-mers of each candidate read (Fig 7), so one segment
// load serves all 32 keys, and all 32 threads participate in table
// construction (Fig 5).
func buildTableV2(w *simt.Warp, table gpuht.Table, p *itemPlan, dev batchDev, cfg *Config) error {
	// Per-chunk loop bookkeeping runs under the full mask regardless of the
	// chunk's active lanes, so it batches into one ExecN per call.
	k := table.K
	chunks := 0
	var keyOffs, extBases simt.Vec
	var own gpuht.Keys
	for ri := range p.item.reads {
		rlen := len(p.item.reads[ri].Seq)
		nk := rlen - k + 1
		if nk <= 0 {
			continue
		}
		keyOff, readOff := uint64(p.keyOffs[ri]), uint64(p.readOffs[ri])
		for start := 0; start < nk; start += simt.WarpSize {
			mask := simt.PrefixMask(nk - start)
			for lane := 0; lane < simt.WarpSize && start+lane < nk; lane++ {
				keyOffs[lane] = keyOff + uint64(start+lane)
			}
			table.LoadKeys(w, mask, &keyOffs, &own)
			hiq := loadExtEvidence(w, mask, start, k, rlen, keyOff, readOff, &own, dev, cfg, &extBases)
			if err := table.InsertKeys(w, mask, &own, &keyOffs, &extBases, hiq); err != nil {
				w.ExecN(simt.ICtrl, simt.FullMask, chunks)
				return err
			}
			chunks++
		}
	}
	w.ExecN(simt.ICtrl, simt.FullMask, chunks)
	return nil
}

// loadExtEvidence finds, for the k-mers at positions start, start+1, … of a
// read (one per active lane; mask is a lane prefix), the following base and
// its quality, writing the active lanes' 2-bit extension codes (NoExt for
// read-suffix k-mers or ambiguous bases) to extBases and returning the
// high-quality lane mask. A packed read's next bases came with its key
// segment (own.Next); a raw read's are loaded. Consecutive lanes read
// consecutive bytes, so the loads are lane-strided by one.
func loadExtEvidence(w *simt.Warp, mask simt.Mask, start, k, rlen int, keyOff, readOff uint64, own *gpuht.Keys, dev batchDev, cfg *Config, extBases *simt.Vec) simt.Mask {
	var hiq simt.Mask
	for m := uint32(mask); m != 0; m &= m - 1 {
		extBases[bits.TrailingZeros32(m)] = gpuht.NoExt
	}

	// Lane l's k-mer is followed by a base iff start+l+k < rlen.
	hasExt := mask & simt.PrefixMask(rlen-k-start)
	w.Exec(simt.IInt, mask) // bounds computation
	if hasExt == 0 {
		return hiq
	}
	next := uint64(start + k) // read offset of lane 0's following base
	packed := keyOff&gpuht.Packed != 0
	var baseBytes, qualBytes simt.Vec
	if !packed {
		w.LoadGlobalStrided(hasExt, uint64(dev.seqBase)+keyOff+next, 1, 1, &baseBytes)
	}
	w.LoadGlobalStrided(hasExt, uint64(dev.qualBase)+readOff+next, 1, 1, &qualBytes)
	w.ExecN(simt.IInt, hasExt, 2) // code conversion + quality compare
	for m := uint32(hasExt); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		c, ok := byte(own.Next[lane]), true
		if !packed {
			c, ok = dna.Code(byte(baseBytes[lane]))
		}
		if !ok {
			continue
		}
		extBases[lane] = uint64(c)
		if dna.QualScore(byte(qualBytes[lane])) >= cfg.QualCutoff {
			hiq |= simt.LaneMask(lane)
		}
	}
	return hiq
}

// walkLane0 is Algorithm 2 on the device: lane 0 walks while the rest of
// the warp is predicated off (Fig 5), appending accepted bases to the walk
// buffer in global memory. It mirrors walkCPU step for step.
func walkLane0(w *simt.Warp, table gpuht.Table, vis gpuht.Visited, walkBase simt.Ptr, tailLen int, extLen *int, mer int, cfg *Config) (WalkState, error) {
	// Per-step accounting (one ICtrl at the loop head, the 8-op extension
	// decision after each lookup) is batched and flushed at the single exit
	// — identical totals, one stats update per walk instead of per step.
	lane0 := simt.LaneMask(0)
	steps, lookups := 0, 0
	state, rerr := WalkDeadEnd, error(nil)
	var off, mirror simt.Vec // lane 0's local offset; the mer as read back from there, costed and not used
loop:
	for {
		steps++
		if *extLen >= cfg.MaxWalkLen {
			state = WalkMaxLen
			break
		}
		curOff := uint32(tailLen + *extLen - mer)
		seen, err := vis.InsertLane(w, 0, curOff)
		if err != nil {
			rerr = err
			break
		}
		if seen {
			state = WalkLoop
			break
		}
		// The walk keeps its growing sequence in a per-thread buffer; the
		// current mer is read from there each step (local-memory traffic,
		// §4.2) before the global-table probes.
		for b := 0; b < (mer+7)/8; b++ {
			off[0] = uint64(walkScratch + int(curOff) + 8*b)
			w.LoadLocal(lane0, &off, 8, &mirror)
		}
		e, ok := table.LookupLane(w, 0, uint64(walkBase)+uint64(curOff))
		lookups++ // extension decision arithmetic, 8 ops
		if !ok {
			break
		}
		base, st := DecideExt(e, cfg.MinViableScore)
		switch st {
		case StepEnd:
			break loop
		case StepFork:
			state = WalkFork
			break loop
		}
		var a, v simt.Vec
		a[0] = uint64(walkBase) + uint64(tailLen+*extLen)
		v[0] = uint64(dna.Alphabet[base])
		w.StoreGlobal(lane0, &a, 1, &v)
		off[0] = uint64(walkScratch + tailLen + *extLen)
		w.StoreLocal(lane0, &off, 1, &v)
		*extLen++
	}
	w.ExecN(simt.ICtrl, lane0, steps)
	w.ExecN(simt.IInt, lane0, 8*lookups)
	return state, rerr
}
