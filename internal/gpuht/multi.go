package gpuht

import (
	"math/bits"

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
// extension); each lane's keys load, hash and compare at its own k, and
// lanes whose k-mers span fewer words sit predicated off for the rest.
type LaneTables struct {
	Base     [simt.WarpSize]uint64 // device address of each lane's table
	Capacity [simt.WarpSize]uint64
	SeqBase  simt.Ptr
	PackBase simt.Ptr
	K        [simt.WarpSize]int
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
	var own Keys
	var slots simt.Vec
	loadKeys(w, mask, keyOffs, t.SeqBase, t.PackBase, lanesK{each: &t.K}, &own, false)
	hashKeys(w, mask, &own, lanesK{each: &t.K}, &slots)

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

		claimed := emptyLanes(pending, &observed)
		occupied := pending &^ claimed
		// Claiming lanes initialize their entries (the clear is a 0xFF
		// memset; see ClearLaneRegions).
		if claimed != 0 {
			var a simt.Vec
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offCount, &a), 4, &zeroVec)
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offExtHi, &a), 8, &zeroVec)
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offExtLo, &a), 8, &zeroVec)
		}
		matched := claimed
		if occupied != 0 {
			matched |= matchStored(w, occupied, &own, &observed, t.SeqBase, t.PackBase, lanesK{each: &t.K})
		}
		if matched != 0 {
			t.updateCounts(w, matched, &entries, extBases, extHiQ)
		}
		pending &^= matched
		if pending != 0 {
			w.Exec(simt.IInt, pending)
			bump(pending, &slots)
		}
	}
	w.ExecN(simt.ICtrl, mask, int(guard)) // batched loop bookkeeping
	return nil
}

// updateCounts bumps count and the extension counters for matched lanes.
func (t LaneTables) updateCounts(w *simt.Warp, matched simt.Mask, entries, extBases *simt.Vec, extHiQ simt.Mask) {
	var countAddrs simt.Vec
	w.AtomicAdd(matched, fieldAddrs(matched, entries, offCount, &countAddrs), &oneVec, 4)

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
// lane's key address (raw bytes, packed in registers as LookupLane does),
// returning per-lane extensions and the found mask.
// Returns ErrNoConverge if the probe loop wraps the widest lane's table
// without resolving every lane.
func (t LaneTables) LookupLanes(w *simt.Warp, mask simt.Mask, keyAddrs *simt.Vec) ([simt.WarpSize]Ext, simt.Mask, error) {
	var exts [simt.WarpSize]Ext
	var found simt.Mask
	if mask == 0 {
		return exts, 0, nil
	}
	var own Keys
	var slots simt.Vec
	loadRaw(w, mask, keyAddrs, lanesK{each: &t.K}, &own)
	hashKeys(w, mask, &own, lanesK{each: &t.K}, &slots)

	pending := mask
	guard := uint64(0)
	bound := maxLaneCapacity(mask, &t.Capacity) + 1
	var stored simt.Vec
	for pending != 0 {
		if guard++; guard > bound {
			w.ExecN(simt.ICtrl, mask, int(guard-1))
			return exts, found, ErrNoConverge
		}
		var entries simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if pending.Has(lane) {
				entries[lane] = t.Base[lane] + (slots[lane]%t.Capacity[lane])*EntryBytes
			}
		}
		w.LoadGlobal(pending, &entries, 4, &stored) // the key field is the entry's first
		w.Exec(simt.IInt, pending)

		occupied := pending &^ emptyLanes(pending, &stored)
		pending = occupied

		if occupied != 0 {
			eq := matchStored(w, occupied, &own, &stored, t.SeqBase, t.PackBase, lanesK{each: &t.K})
			if eq != 0 {
				loadExts(w, eq, &entries, &exts)
				found |= eq
				pending &^= eq
				occupied &^= eq
			}
			// Hash collisions probe on.
			bump(occupied, &slots)
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
	var addrs, slots simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		addrs[lane] = v.BufBase[lane] + offs[lane]
	}
	hashBytes(w, mask, &addrs, lanesK{each: &v.K}, &slots)

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

		claimed := emptyLanes(pending, &observed)
		occupied := pending &^ claimed
		pending &^= claimed

		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = v.BufBase[lane] + observed[lane]
				}
			}
			eq := bytesEqual(w, occupied, &storedAddrs, &addrs, lanesK{each: &v.K})
			seen |= eq
			pending &^= eq
			bump(pending&occupied, &slots)
		}
	}
	w.ExecN(simt.ICtrl, mask, int(guard)) // batched loop bookkeeping
	return seen, nil
}

// bump adds one to v[lane] for the lanes of mask: the next probe slot.
func bump(mask simt.Mask, v *simt.Vec) {
	for m := uint32(mask); m != 0; m &= m - 1 {
		v[bits.TrailingZeros32(m)]++
	}
}

// ClearLaneRegions memsets each lane's own hash table to 0xFF (key fields
// become Empty; claiming lanes initialize the rest), lockstep over word
// index. Lanes write into 32 unrelated tables, so nothing coalesces — the
// v1 clear pays ~32 transactions per store instruction where v2 pays 8.
func ClearLaneRegions(w *simt.Warp, mask simt.Mask, base, capacity *[simt.WarpSize]uint64) {
	ones := simt.Splat(^uint64(0))
	fillLanes(w, mask, base, capacity, EntryBytes/8, 8, &ones)
}

// ClearLaneVisited resets per-lane visited slots to Empty, lockstep.
func ClearLaneVisited(w *simt.Warp, mask simt.Mask, base, capacity *[simt.WarpSize]uint64) {
	fillLanes(w, mask, base, capacity, 1, 4, &emptyVec)
}

// fillLanes stores vals at base[lane] onward, size bytes per store and
// per·capacity[lane] stores per lane of mask, lockstep over the store index.
func fillLanes(w *simt.Warp, mask simt.Mask, base, capacity *[simt.WarpSize]uint64, per uint64, size int, vals *simt.Vec) {
	for s := uint64(0); s < maxLaneCapacity(mask, capacity)*per; s++ {
		var m simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			if mask.Has(lane) && s < capacity[lane]*per {
				m |= simt.LaneMask(lane)
				addrs[lane] = base[lane] + s*uint64(size)
			}
		}
		if m != 0 {
			w.StoreGlobal(m, &addrs, size, vals)
			w.Exec(simt.ICtrl, m)
		}
	}
}
