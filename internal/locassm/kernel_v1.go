package locassm

import (
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// laneState is one lane's extension state in the v1 kernel.
type laneState struct {
	p       *itemPlan
	tailLen int
	mer     int
	shift   int
	extLen  int
	iters   int
	state   WalkState
}

// extensionKernelV1 is the first development version analyzed in §4.2: one
// CUDA *thread* per hash table. Each warp owns up to 32 extensions; lane i
// serially builds extension i's table and walks extension i's contig, with
// the 32 lanes stepping in lockstep over 32 unrelated memory regions.
// Compared to v2 this issues far more global-memory warp instructions and
// more transactions per instruction (nothing coalesces), and lanes whose
// extensions finish early sit predicated off — the Fig 8 / Fig 10 story.
//
// Table faults land in errs[w.ID] (per-warp slot, race-free) and abort the
// warp's remaining items, mirroring extensionKernelV2.
func extensionKernelV1(plan *batchPlan, dev batchDev, cfg *Config, errs []error) func(w *simt.Warp) {
	return func(w *simt.Warp) {
		first := w.ID * simt.WarpSize

		var ls [simt.WarpSize]*laneState
		var active, zeroOut simt.Mask
		for lane := 0; lane < simt.WarpSize && first+lane < len(plan.items); lane++ {
			p := plan.items[first+lane]
			st := &laneState{p: p, tailLen: len(p.item.tail)}
			st.mer = min(cfg.StartMer, st.tailLen)
			ls[lane] = st
			if st.mer < cfg.MinMer {
				zeroOut |= simt.LaneMask(lane)
			} else {
				active |= simt.LaneMask(lane)
			}
		}
		if zeroOut != 0 {
			writeOutLanes(w, dev, zeroOut, &ls, true)
		}

		for active != 0 {
			iterMask := active

			// Per-lane table descriptors at each lane's current mer.
			var tables gpuht.LaneTables
			var vis gpuht.LaneVisited
			var tBases, tCaps, vBases, vCaps [simt.WarpSize]uint64
			tables.SeqBase, tables.PackBase = dev.seqBase, dev.packBase
			for lane := 0; lane < simt.WarpSize; lane++ {
				if !iterMask.Has(lane) {
					continue
				}
				st := ls[lane]
				tBases[lane] = uint64(dev.tables) + uint64(st.p.tableOff)
				tCaps[lane] = uint64(st.p.tableSlots)
				vBases[lane] = uint64(dev.visited) + uint64(st.p.visitedOff)
				vCaps[lane] = uint64(st.p.visitedSlots)
				tables.Base[lane] = tBases[lane]
				tables.Capacity[lane] = tCaps[lane]
				tables.K[lane] = st.mer
				vis.Base[lane] = vBases[lane]
				vis.Capacity[lane] = vCaps[lane]
				vis.BufBase[lane] = uint64(dev.walks) + uint64(st.p.walkOff)
				vis.K[lane] = st.mer
			}

			gpuht.ClearLaneRegions(w, iterMask, &tBases, &tCaps)
			gpuht.ClearLaneVisited(w, iterMask, &vBases, &vCaps)

			if err := buildTablesV1(w, iterMask, &ls, tables, dev, cfg); err != nil {
				errs[w.ID] = err
				return
			}
			w.SyncWarp(simt.FullMask)
			if err := walkLanesV1(w, iterMask, &ls, tables, vis, dev, cfg); err != nil {
				errs[w.ID] = err
				return
			}

			// Per-lane ladder advance; finished lanes write their outputs.
			var finished simt.Mask
			for lane := 0; lane < simt.WarpSize; lane++ {
				if !iterMask.Has(lane) {
					continue
				}
				st := ls[lane]
				st.iters++
				next, nextShift, done := nextMer(cfg, st.mer, st.shift, st.state)
				if done || next > st.tailLen+st.extLen || st.iters >= cfg.MaxIters {
					finished |= simt.LaneMask(lane)
					continue
				}
				st.mer, st.shift = next, nextShift
			}
			w.Exec(simt.ICtrl, iterMask)
			if finished != 0 {
				writeOutLanes(w, dev, finished, &ls, false)
				active &^= finished
			}
		}
	}
}

// buildTablesV1 is Algorithm 1 with one thread per table: lockstep over a
// k-mer cursor, each lane inserting the next k-mer of its own read set
// into its own table. Lanes that exhaust their k-mers sit predicated off
// until the slowest lane finishes.
func buildTablesV1(w *simt.Warp, mask simt.Mask, ls *[simt.WarpSize]*laneState, tables gpuht.LaneTables, dev batchDev, cfg *Config) error {
	type cursor struct{ ri, ki int }
	var cur [simt.WarpSize]cursor

	// advance skips reads shorter than the lane's mer and reports whether
	// the lane still has a k-mer to insert.
	hasKmer := func(lane int) bool {
		st := ls[lane]
		for cur[lane].ri < len(st.p.item.reads) {
			r := st.p.item.reads[cur[lane].ri]
			if cur[lane].ki+st.mer <= len(r.Seq) {
				return true
			}
			cur[lane].ri++
			cur[lane].ki = 0
		}
		return false
	}

	building := mask
	for building != 0 {
		var stepMask, hasNext, raw simt.Mask
		var keyOffs, seqAddrs, qualAddrs, nextPos simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !building.Has(lane) {
				continue
			}
			if !hasKmer(lane) {
				building &^= simt.LaneMask(lane)
				continue
			}
			st := ls[lane]
			stepMask |= simt.LaneMask(lane)
			ri, ki := cur[lane].ri, uint64(cur[lane].ki)
			keyOffs[lane] = uint64(st.p.keyOffs[ri]) + ki
			if ki+uint64(st.mer) < uint64(len(st.p.item.reads[ri].Seq)) {
				// The next base: its byte in the packed arena, or in the raw one.
				hasNext |= simt.LaneMask(lane)
				nextPos[lane] = uint64(st.p.readOffs[ri]) + ki + uint64(st.mer)
				seqAddrs[lane] = uint64(dev.packBase) + nextPos[lane]/4
				if keyOffs[lane]&gpuht.Packed == 0 {
					raw |= simt.LaneMask(lane)
					seqAddrs[lane] = uint64(dev.seqBase) + keyOffs[lane] + uint64(st.mer)
				}
				qualAddrs[lane] = uint64(dev.qualBase) + nextPos[lane]
			}
			cur[lane].ki++
		}
		if stepMask == 0 {
			break
		}
		extBases := simt.Splat(uint64(gpuht.NoExt))
		var hiq simt.Mask
		w.Exec(simt.IInt, stepMask)
		if hasNext != 0 {
			var baseBytes, qualBytes simt.Vec
			w.LoadGlobal(hasNext, &seqAddrs, 1, &baseBytes)
			w.LoadGlobal(hasNext, &qualAddrs, 1, &qualBytes)
			w.ExecN(simt.IInt, hasNext, 2)
			for lane := 0; lane < simt.WarpSize; lane++ {
				if !hasNext.Has(lane) {
					continue
				}
				c, ok := byte(baseBytes[lane]>>(2*(nextPos[lane]%4)))&3, true
				if raw.Has(lane) {
					c, ok = dna.Code(byte(baseBytes[lane]))
				}
				if ok {
					extBases[lane] = uint64(c)
					if dna.QualScore(byte(qualBytes[lane])) >= cfg.QualCutoff {
						hiq |= simt.LaneMask(lane)
					}
				}
			}
		}
		if err := tables.InsertLanes(w, stepMask, &keyOffs, &extBases, hiq); err != nil {
			return err
		}
		w.Exec(simt.ICtrl, mask)
	}
	return nil
}

// walkLanesV1 is Algorithm 2 with one thread per extension, all 32 lanes
// walking their own contigs in lockstep. Walk lengths differ wildly across
// lanes ("up to 300 steps for some threads while another terminates right
// at the start", §4.2), so predication mounts as lanes drop out.
func walkLanesV1(w *simt.Warp, mask simt.Mask, ls *[simt.WarpSize]*laneState, tables gpuht.LaneTables, vis gpuht.LaneVisited, dev batchDev, cfg *Config) error {
	walking := mask
	for walking != 0 {
		w.Exec(simt.ICtrl, walking)

		// Max-length check (same order as the CPU reference).
		for lane := 0; lane < simt.WarpSize; lane++ {
			if walking.Has(lane) && ls[lane].extLen >= cfg.MaxWalkLen {
				ls[lane].state = WalkMaxLen
				walking &^= simt.LaneMask(lane)
			}
		}
		if walking == 0 {
			break
		}

		// Cycle detection via each lane's visited table.
		var offs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if walking.Has(lane) {
				st := ls[lane]
				offs[lane] = uint64(st.tailLen + st.extLen - st.mer)
			}
		}
		seen, err := vis.InsertLanes(w, walking, &offs)
		if err != nil {
			return err
		}
		for lane := 0; lane < simt.WarpSize; lane++ {
			if seen.Has(lane) {
				ls[lane].state = WalkLoop
			}
		}
		walking &^= seen
		if walking == 0 {
			break
		}

		// Per-thread walk-buffer reads of the current mer (local traffic).
		maxBlk := 0
		for lane := 0; lane < simt.WarpSize; lane++ {
			if walking.Has(lane) {
				if b := (ls[lane].mer + 7) / 8; b > maxBlk {
					maxBlk = b
				}
			}
		}
		for b := 0; b < maxBlk; b++ {
			var bm simt.Mask
			var lofs, mirror simt.Vec // mirror: the read is costed, its value not used
			for lane := 0; lane < simt.WarpSize; lane++ {
				if walking.Has(lane) && b < (ls[lane].mer+7)/8 {
					bm |= simt.LaneMask(lane)
					lofs[lane] = uint64(walkScratch) + offs[lane] + uint64(8*b)
				}
			}
			if bm != 0 {
				w.LoadLocal(bm, &lofs, 8, &mirror)
			}
		}

		// Table lookup on each lane's own table.
		var keyAddrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if walking.Has(lane) {
				keyAddrs[lane] = vis.BufBase[lane] + offs[lane]
			}
		}
		exts, found, err := tables.LookupLanes(w, walking, &keyAddrs)
		if err != nil {
			return err
		}
		for lane := 0; lane < simt.WarpSize; lane++ {
			if walking.Has(lane) && !found.Has(lane) {
				ls[lane].state = WalkDeadEnd
			}
		}
		walking &= found
		if walking == 0 {
			break
		}

		// Extension decision per lane.
		w.ExecN(simt.IInt, walking, 8)
		var extend simt.Mask
		var storeAddrs, storeVals simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !walking.Has(lane) {
				continue
			}
			st := ls[lane]
			base, dec := DecideExt(exts[lane], cfg.MinViableScore)
			switch dec {
			case StepEnd:
				st.state = WalkDeadEnd
				walking &^= simt.LaneMask(lane)
			case StepFork:
				st.state = WalkFork
				walking &^= simt.LaneMask(lane)
			default:
				extend |= simt.LaneMask(lane)
				storeAddrs[lane] = vis.BufBase[lane] + uint64(st.tailLen+st.extLen)
				storeVals[lane] = uint64(dna.Alphabet[base])
			}
		}
		if extend != 0 {
			w.StoreGlobal(extend, &storeAddrs, 1, &storeVals)
			var lofs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if extend.Has(lane) {
					st := ls[lane]
					lofs[lane] = uint64(walkScratch + st.tailLen + st.extLen)
				}
			}
			w.StoreLocal(extend, &lofs, 1, &storeVals)
			for lane := 0; lane < simt.WarpSize; lane++ {
				if extend.Has(lane) {
					ls[lane].extLen++
				}
			}
		}
	}
	return nil
}

// writeOutLanes stores (extLen, state, iters) records for the given lanes.
// zero forces an all-zero record (too-short contigs).
func writeOutLanes(w *simt.Warp, dev batchDev, mask simt.Mask, ls *[simt.WarpSize]*laneState, zero bool) {
	var a, v simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		a[lane] = uint64(dev.outs) + uint64(ls[lane].p.outOff)
		if !zero {
			v[lane] = uint64(ls[lane].extLen)
		}
	}
	w.StoreGlobal(mask, &a, 4, &v)
	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			a[lane] += 4
			if zero {
				v[lane] = 0
			} else {
				v[lane] = uint64(ls[lane].state)
			}
		}
	}
	w.StoreGlobal(mask, &a, 1, &v)
	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			a[lane]++
			if zero {
				v[lane] = 0
			} else {
				v[lane] = uint64(ls[lane].iters)
			}
		}
	}
	w.StoreGlobal(mask, &a, 1, &v)
}
