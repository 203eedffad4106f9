package gpuht

import (
	"math/bits"

	"mhm2sim/internal/simt"
)

// InsertBatch inserts up to 32 k-mers, one per active lane, implementing the
// §3.3 protocol:
//
//  1. every lane loads and hashes its k-mer (coalesced loads, LoadKeys),
//  2. match_any_sync identifies lanes holding the same k-mer (thread
//     collisions),
//  3. lanes probe linearly; a slot is claimed with atomicCAS on the
//     pointer-compressed key field — the CAS winner initializes the entry
//     while colliding lanes are synchronized, then all matching lanes
//     update the counts atomically,
//  4. hash collisions (occupied slot, different key) move to the next slot.
//
// keyOffs gives each lane's k-mer as an offset into a reads arena (see
// Packed); extBases the 2-bit code of the base following the k-mer (NoExt
// when the k-mer is a read suffix); extHiQ the lanes whose extension base
// is high-quality.
//
// Returns ErrTableFull if probing wraps the whole table without finding
// space — the driver sized the batch wrong (or a fault was injected) and
// should re-split it rather than die.
func (t Table) InsertBatch(w *simt.Warp, mask simt.Mask, keyOffs *simt.Vec, extBases *simt.Vec, extHiQ simt.Mask) error {
	var own Keys
	t.LoadKeys(w, mask, keyOffs, &own)
	return t.InsertKeys(w, mask, &own, keyOffs, extBases, extHiQ)
}

// LoadKeys loads into own the k-mers at the active lanes' key offsets
// (a packed run shares one segment load; see loadRun).
func (t Table) LoadKeys(w *simt.Warp, mask simt.Mask, keyOffs *simt.Vec, own *Keys) {
	if mask != 0 {
		loadKeys(w, mask, keyOffs, t.SeqBase, t.PackBase, lanesK{&laneK[t.K], t.K}, own, true)
	}
}

// InsertKeys is InsertBatch for keys the caller loaded with LoadKeys
// (the v2 kernel takes each k-mer's next base from the same load).
func (t Table) InsertKeys(w *simt.Warp, mask simt.Mask, own *Keys, keyOffs, extBases *simt.Vec, extHiQ simt.Mask) error {
	if mask == 0 {
		return nil
	}
	k := lanesK{&laneK[t.K], t.K}
	var entries, observed, a simt.Vec
	hashKeys(w, mask, own, k, &entries)

	// Thread-collision groups. Lanes with equal hash are candidates; exact
	// equality is established by the key compare in the probe loop, and the
	// match mask is what the CUDA kernel uses to synchronize the group.
	// Nothing below reads the groups, so the instruction is costed and its
	// result not computed.
	w.Exec(simt.IMatch, mask)

	// The hashes become entry addresses: reduced to a slot once, wrapped at
	// the table's end on every increment below. Which extension counter each
	// lane bumps, if any, is the same in every probe round.
	var extField simt.Vec
	var extHi, extLo simt.Mask
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		entries[lane] = t.entryAddr(entries[lane] % t.Capacity)
		if extBases[lane] == NoExt {
			continue
		}
		if extHiQ.Has(lane) {
			extHi |= simt.LaneMask(lane)
			extField[lane] = offExtHi + 2*(extBases[lane]&3)
		} else {
			extLo |= simt.LaneMask(lane)
			extField[lane] = offExtLo + 2*(extBases[lane]&3)
		}
	}

	// Loop bookkeeping runs under the constant launch mask, so the per-probe
	// ICtrl accounting batches into one ExecN flushed at every exit —
	// bit-identical totals (the counters are commutative sums), one stats
	// update instead of one per probe.
	end := t.entryAddr(t.Capacity)
	pending := mask
	probes := uint64(0)
	for pending != 0 {
		if probes++; probes > t.Capacity+1 {
			// The §3.2 sizing guarantees space for every k-mer; probing
			// past capacity means the driver mis-sized the table.
			w.ExecN(simt.ICtrl, mask, int(probes-1))
			return ErrTableFull
		}
		// Try to claim: CAS(keyOff, Empty, myKeyOff); the key field is the
		// entry's first (offKeyOff = 0).
		w.AtomicCAS(pending, &entries, &emptyVec, keyOffs, 4, &observed)

		claimed := emptyLanes(pending, &observed)

		// Winner initializes the entry inside the synchronized block
		// (§3.3): the clear memsets the table to 0xFF, so the claiming
		// lane must zero the count and extension words before any
		// colliding lane updates them.
		if claimed != 0 {
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offCount, &a), 4, &zeroVec)
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offExtHi, &a), 8, &zeroVec)
			w.StoreGlobal(claimed, fieldAddrs(claimed, &entries, offExtLo, &a), 8, &zeroVec)
			w.SyncWarp(pending)
		}

		// Occupied slots: the stored key may still be our k-mer inserted
		// by another lane or an earlier read (match), or a genuine hash
		// collision (probe on). Keys stored by one earlier read are a run.
		matched := claimed
		if occupied := pending &^ claimed; occupied != 0 {
			matched |= matchStored(w, occupied, own, &observed, t.SeqBase, t.PackBase, k)
		}

		// Matched lanes bump count and their extension counter.
		if matched != 0 {
			w.AtomicAdd(matched, fieldAddrs(matched, &entries, offCount, &a), &oneVec, 4)
			hi, lo := matched&extHi, matched&extLo
			for m := uint32(hi | lo); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a[lane] = entries[lane] + extField[lane]
			}
			if hi != 0 {
				w.AtomicAdd(hi, &a, &oneVec, 2)
			}
			if lo != 0 {
				w.AtomicAdd(lo, &a, &oneVec, 2)
			}
		}

		// Advance unmatched occupied lanes to the next slot: linear probe.
		pending &^= matched
		if pending != 0 {
			w.Exec(simt.IInt, pending)
			for m := uint32(pending); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if entries[lane] += EntryBytes; entries[lane] == end {
					entries[lane] = uint64(t.Base)
				}
			}
		}
	}
	w.ExecN(simt.ICtrl, mask, int(probes)) // batched loop bookkeeping
	return nil
}

// emptyLanes returns the lanes of mask whose key field v[lane] is Empty.
func emptyLanes(mask simt.Mask, v *simt.Vec) (empty simt.Mask) {
	for m := uint32(mask); m != 0; m &= m - 1 {
		if lane := bits.TrailingZeros32(m); v[lane] == Empty {
			empty |= simt.LaneMask(lane)
		}
	}
	return empty
}

// fieldAddrs writes to a, for the lanes of mask, the address off bytes into
// the lane's entry, and returns a.
func fieldAddrs(mask simt.Mask, entries *simt.Vec, off uint64, a *simt.Vec) *simt.Vec {
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a[lane] = entries[lane] + off
	}
	return a
}
