package gpuht

import (
	"mhm2sim/internal/murmur"
	"mhm2sim/internal/simt"
)

// This file implements the per-lane-table operations used by the v1
// ("one thread per hash table") kernel of §4.2: every lane of a warp owns
// a different extension's table and walks its own contig, so lanes issue
// loads against 32 unrelated memory regions. The divergent transactions
// and the predication of lanes that finish early are exactly what Figs
// 8 and 10 measure against the warp-cooperative v2.

// LaneTables describes one k-mer hash table per lane. Lanes may sit at
// different mer sizes (the §2.3 ladder advances independently per
// extension).
type LaneTables struct {
	Base     [simt.WarpSize]uint64 // device address of each lane's table
	Capacity [simt.WarpSize]uint64
	SeqBase  simt.Ptr
	K        [simt.WarpSize]int
}

// maxBlocks returns the widest lane's 8-byte block count.
func maxBlocks(mask simt.Mask, ks *[simt.WarpSize]int) int {
	n := 0
	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			if b := hashBlocks(ks[lane]); b > n {
				n = b
			}
		}
	}
	return n
}

// HashKmersVar is hashKmers with a per-lane k: lanes gather their own
// k-mers (divergent loads) and hash them.
func HashKmersVar(w *simt.Warp, mask simt.Mask, addrs *simt.Vec, ks *[simt.WarpSize]int) simt.Vec {
	nblk := maxBlocks(mask, ks)
	// Stream blocks into per-lane murmur state (as in hashKmers) instead of
	// materializing per-lane word slices — this is the v1 kernel's hash and
	// allocated one slice per active lane per call on the hot path.
	var out, loaded, spill simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = murmur.Hash64Init(ks[lane], hashSeed)
		}
	}
	for b := 0; b < nblk; b++ {
		var bm simt.Mask
		var ba simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if mask.Has(lane) && b < hashBlocks(ks[lane]) {
				bm |= simt.LaneMask(lane)
				ba[lane] = addrs[lane] + uint64(8*b)
			}
		}
		if bm == 0 {
			continue
		}
		w.LoadGlobal(bm, &ba, 8, &loaded)
		if w.LocalBytesPerLane() >= 8*(b+1) {
			off := stageOff(b, &spill)
			w.StoreLocal(bm, off, 8, &loaded)
			w.LoadLocal(bm, off, 8, &loaded)
		}
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !bm.Has(lane) {
				continue
			}
			if rem := ks[lane] & 7; b == ks[lane]/8 && rem != 0 {
				out[lane] = murmur.Hash64Tail(out[lane], loaded[lane], rem)
			} else {
				out[lane] = murmur.Hash64Mix(out[lane], loaded[lane])
			}
		}
	}
	w.ExecN(simt.IInt, mask, 4*nblk+3)

	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = murmur.Hash64Final(out[lane])
		} else {
			out[lane] = 0
		}
	}
	return out
}

// keysEqualVar compares per-lane keys of per-lane lengths.
func keysEqualVar(w *simt.Warp, mask simt.Mask, addrA, addrB *simt.Vec, ks *[simt.WarpSize]int) simt.Mask {
	nblk := maxBlocks(mask, ks)
	eq := mask
	var va, vb simt.Vec
	for b := 0; b < nblk && eq != 0; b++ {
		var bm simt.Mask
		var aa, bb simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if eq.Has(lane) && b < hashBlocks(ks[lane]) {
				bm |= simt.LaneMask(lane)
				aa[lane] = addrA[lane] + uint64(8*b)
				bb[lane] = addrB[lane] + uint64(8*b)
			}
		}
		if bm == 0 {
			break
		}
		w.LoadGlobal(bm, &aa, 8, &va)
		w.LoadGlobal(bm, &bb, 8, &vb)
		w.ExecN(simt.IInt, bm, 2)
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !bm.Has(lane) {
				continue
			}
			keep := ^uint64(0)
			if rem := ks[lane] - 8*b; rem < 8 {
				keep = ^uint64(0) >> uint(64-8*rem)
			}
			if va[lane]&keep != vb[lane]&keep {
				eq &^= simt.LaneMask(lane)
			}
		}
	}
	return eq
}

// InsertLanes inserts one k-mer per active lane into that lane's own
// table. Thread collisions cannot occur across tables, so no match_any is
// needed; hash collisions probe linearly within each lane's table.
// Returns ErrNoConverge if the lockstep probe loop wraps the widest lane's
// table without every lane finishing — some lane's table is full.
func (t LaneTables) InsertLanes(w *simt.Warp, mask simt.Mask, keyOffs, extBases *simt.Vec, extHiQ simt.Mask) error {
	if mask == 0 {
		return nil
	}
	var addrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		addrs[lane] = uint64(t.SeqBase) + keyOffs[lane]
	}
	hashes := HashKmersVar(w, mask, &addrs, &t.K)

	slots := hashes
	pending := mask
	guard := uint64(0)
	bound := maxLaneCapacity(mask, &t.Capacity) + 1
	var observed simt.Vec
	for pending != 0 {
		if guard++; guard > bound {
			w.ExecN(simt.ICtrl, mask, int(guard-1))
			return ErrNoConverge
		}
		var entries simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if pending.Has(lane) {
				entries[lane] = t.Base[lane] + (slots[lane]%t.Capacity[lane])*EntryBytes
			}
		}
		w.AtomicCAS(pending, &entries, &emptyVec, keyOffs, 4, &observed)

		var claimed, occupied simt.Mask
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !pending.Has(lane) {
				continue
			}
			if observed[lane] == Empty {
				claimed |= simt.LaneMask(lane)
			} else {
				occupied |= simt.LaneMask(lane)
			}
		}
		// Claiming lanes initialize their entries (the clear is a 0xFF
		// memset; see ClearLaneRegions).
		if claimed != 0 {
			var a simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offCount
			}
			w.StoreGlobal(claimed, &a, 4, &zeroVec)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtHi
			}
			w.StoreGlobal(claimed, &a, 8, &zeroVec)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtLo
			}
			w.StoreGlobal(claimed, &a, 8, &zeroVec)
		}
		matched := claimed
		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = uint64(t.SeqBase) + observed[lane]
				}
			}
			matched |= keysEqualVar(w, occupied, &storedAddrs, &addrs, &t.K)
		}
		if matched != 0 {
			t.updateCounts(w, matched, &entries, extBases, extHiQ)
		}
		pending &^= matched
		if pending != 0 {
			w.Exec(simt.IInt, pending)
			for lane := 0; lane < simt.WarpSize; lane++ {
				if pending.Has(lane) {
					slots[lane]++
				}
			}
		}
	}
	w.ExecN(simt.ICtrl, mask, int(guard)) // batched loop bookkeeping
	return nil
}

// updateCounts bumps count and the extension counters for matched lanes.
func (t LaneTables) updateCounts(w *simt.Warp, matched simt.Mask, entries, extBases *simt.Vec, extHiQ simt.Mask) {
	var countAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		countAddrs[lane] = entries[lane] + offCount
	}
	w.AtomicAdd(matched, &countAddrs, &oneVec, 4)

	var hiMask, loMask simt.Mask
	var extAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !matched.Has(lane) || extBases[lane] == NoExt {
			continue
		}
		base := extBases[lane] & 3
		if extHiQ.Has(lane) {
			hiMask |= simt.LaneMask(lane)
			extAddrs[lane] = entries[lane] + offExtHi + 2*base
		} else {
			loMask |= simt.LaneMask(lane)
			extAddrs[lane] = entries[lane] + offExtLo + 2*base
		}
	}
	if hiMask != 0 {
		w.AtomicAdd(hiMask, &extAddrs, &oneVec, 2)
	}
	if loMask != 0 {
		w.AtomicAdd(loMask, &extAddrs, &oneVec, 2)
	}
}

// LookupLanes probes each active lane's own table for the k-mer at that
// lane's key address, returning per-lane extensions and the found mask.
// Returns ErrNoConverge if the probe loop wraps the widest lane's table
// without resolving every lane.
func (t LaneTables) LookupLanes(w *simt.Warp, mask simt.Mask, keyAddrs *simt.Vec) ([simt.WarpSize]Ext, simt.Mask, error) {
	var exts [simt.WarpSize]Ext
	var found simt.Mask
	if mask == 0 {
		return exts, 0, nil
	}
	hashes := HashKmersVar(w, mask, keyAddrs, &t.K)

	slots := hashes
	pending := mask
	guard := uint64(0)
	bound := maxLaneCapacity(mask, &t.Capacity) + 1
	var stored, counts, his, los simt.Vec
	for pending != 0 {
		if guard++; guard > bound {
			w.ExecN(simt.ICtrl, mask, int(guard-1))
			return exts, found, ErrNoConverge
		}
		var entries, keyFieldAddrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if pending.Has(lane) {
				entries[lane] = t.Base[lane] + (slots[lane]%t.Capacity[lane])*EntryBytes
				keyFieldAddrs[lane] = entries[lane] + offKeyOff
			}
		}
		w.LoadGlobal(pending, &keyFieldAddrs, 4, &stored)
		w.Exec(simt.IInt, pending)

		var missing, occupied simt.Mask
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !pending.Has(lane) {
				continue
			}
			if stored[lane] == Empty {
				missing |= simt.LaneMask(lane)
			} else {
				occupied |= simt.LaneMask(lane)
			}
		}
		pending &^= missing

		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = uint64(t.SeqBase) + stored[lane]
				}
			}
			eq := keysEqualVar(w, occupied, &storedAddrs, keyAddrs, &t.K)
			if eq != 0 {
				// Load extension objects for the matching lanes.
				var a simt.Vec
				for lane := 0; lane < simt.WarpSize; lane++ {
					a[lane] = entries[lane] + offCount
				}
				w.LoadGlobal(eq, &a, 4, &counts)
				for lane := 0; lane < simt.WarpSize; lane++ {
					a[lane] = entries[lane] + offExtHi
				}
				w.LoadGlobal(eq, &a, 8, &his)
				for lane := 0; lane < simt.WarpSize; lane++ {
					a[lane] = entries[lane] + offExtLo
				}
				w.LoadGlobal(eq, &a, 8, &los)
				for lane := 0; lane < simt.WarpSize; lane++ {
					if !eq.Has(lane) {
						continue
					}
					e := &exts[lane]
					e.Count = uint32(counts[lane])
					for b := 0; b < 4; b++ {
						e.Hi[b] = uint16(his[lane] >> uint(16*b))
						e.Lo[b] = uint16(los[lane] >> uint(16*b))
					}
				}
				found |= eq
				pending &^= eq
				occupied &^= eq
			}
			// Hash collisions probe on.
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					slots[lane]++
				}
			}
			if occupied != 0 {
				w.Exec(simt.IInt, occupied)
			}
		}
	}
	w.ExecN(simt.ICtrl, mask, int(guard)) // batched loop bookkeeping
	return exts, found, nil
}

// LaneVisited is the per-lane visited table (cycle detection) for v1.
type LaneVisited struct {
	Base     [simt.WarpSize]uint64
	Capacity [simt.WarpSize]uint64
	BufBase  [simt.WarpSize]uint64 // each lane's walk buffer
	K        [simt.WarpSize]int
}

// InsertLanes records each active lane's current walk k-mer in that lane's
// visited table, returning the mask of lanes that had already seen theirs
// (cycles). Returns ErrNoConverge if some lane's visited table fills up —
// its walk ran longer than the table was sized for.
func (v LaneVisited) InsertLanes(w *simt.Warp, mask simt.Mask, offs *simt.Vec) (simt.Mask, error) {
	var seen simt.Mask
	if mask == 0 {
		return 0, nil
	}
	var addrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		addrs[lane] = v.BufBase[lane] + offs[lane]
	}
	hashes := HashKmersVar(w, mask, &addrs, &v.K)

	slots := hashes
	pending := mask
	guard := uint64(0)
	bound := maxLaneCapacity(mask, &v.Capacity) + 1
	var observed simt.Vec
	for pending != 0 {
		if guard++; guard > bound {
			w.ExecN(simt.ICtrl, mask, int(guard-1))
			return seen, ErrNoConverge
		}
		var slotAddrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if pending.Has(lane) {
				slotAddrs[lane] = v.Base[lane] + (slots[lane]%v.Capacity[lane])*4
			}
		}
		w.AtomicCAS(pending, &slotAddrs, &emptyVec, offs, 4, &observed)
		w.Exec(simt.IInt, pending)

		var claimed, occupied simt.Mask
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !pending.Has(lane) {
				continue
			}
			if observed[lane] == Empty {
				claimed |= simt.LaneMask(lane)
			} else {
				occupied |= simt.LaneMask(lane)
			}
		}
		pending &^= claimed

		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = v.BufBase[lane] + observed[lane]
				}
			}
			eq := keysEqualVar(w, occupied, &storedAddrs, &addrs, &v.K)
			seen |= eq
			pending &^= eq
			for lane := 0; lane < simt.WarpSize; lane++ {
				if pending.Has(lane) && occupied.Has(lane) {
					slots[lane]++
				}
			}
		}
	}
	w.ExecN(simt.ICtrl, mask, int(guard)) // batched loop bookkeeping
	return seen, nil
}

// ClearLaneRegions memsets each lane's own hash table to 0xFF (key fields
// become Empty; claiming lanes initialize the rest), lockstep over word
// index. Lanes write into 32 unrelated tables, so nothing coalesces — the
// v1 clear pays ~32 transactions per store instruction where v2 pays 8.
func ClearLaneRegions(w *simt.Warp, mask simt.Mask, base, capacity *[simt.WarpSize]uint64) {
	maxWords := uint64(0)
	for lane := 0; lane < simt.WarpSize; lane++ {
		if wds := capacity[lane] * EntryBytes / 8; mask.Has(lane) && wds > maxWords {
			maxWords = wds
		}
	}
	ones := simt.Splat(^uint64(0))
	for s := uint64(0); s < maxWords; s++ {
		var m simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if mask.Has(lane) && s < capacity[lane]*EntryBytes/8 {
				m |= simt.LaneMask(lane)
				addrs[lane] = base[lane] + s*8
			}
		}
		if m == 0 {
			continue
		}
		w.StoreGlobal(m, &addrs, 8, &ones)
		w.Exec(simt.ICtrl, m)
	}
}

// ClearLaneVisited resets per-lane visited slots to Empty, lockstep.
func ClearLaneVisited(w *simt.Warp, mask simt.Mask, base, capacity *[simt.WarpSize]uint64) {
	maxCap := uint64(0)
	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) && capacity[lane] > maxCap {
			maxCap = capacity[lane]
		}
	}
	for s := uint64(0); s < maxCap; s++ {
		var m simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if mask.Has(lane) && s < capacity[lane] {
				m |= simt.LaneMask(lane)
				addrs[lane] = base[lane] + s*4
			}
		}
		if m == 0 {
			continue
		}
		w.StoreGlobal(m, &addrs, 4, &emptyVec)
		w.Exec(simt.ICtrl, m)
	}
}
