package gpuht

import "mhm2sim/internal/simt"

// InsertBatch inserts up to 32 k-mers, one per active lane, implementing the
// §3.3 protocol:
//
//  1. every lane hashes its k-mer (coalesced 8-byte gathers),
//  2. match_any_sync identifies lanes holding the same k-mer (thread
//     collisions),
//  3. lanes probe linearly; a slot is claimed with atomicCAS on the
//     pointer-compressed key field — the CAS winner initializes the entry
//     while colliding lanes are synchronized, then all matching lanes
//     update the counts atomically,
//  4. hash collisions (occupied slot, different key) move to the next slot.
//
// keyOffs gives each lane's k-mer as an offset into the reads arena;
// extBases the 2-bit code of the base following the k-mer (NoExt when the
// k-mer is a read suffix); extHiQ the lanes whose extension base is
// high-quality.
//
// Returns ErrTableFull if probing wraps the whole table without finding
// space — the driver sized the batch wrong (or a fault was injected) and
// should re-split it rather than die.
func (t Table) InsertBatch(w *simt.Warp, mask simt.Mask, keyOffs *simt.Vec, extBases *simt.Vec, extHiQ simt.Mask) error {
	if mask == 0 {
		return nil
	}
	// One test per batch decides how its ~16 own-key loads are issued: as
	// lane-strided loads when the lanes hold consecutive k-mers of a read
	// (what buildTableV2 passes), from an address vector otherwise.
	if base, ok := runOf(mask, keyOffs); ok {
		return t.insertBatch(w, mask, keys{base: uint64(t.SeqBase) + base, run: true}, keyOffs, extBases, extHiQ)
	}
	addrs := t.absKeys(keyOffs)
	return t.insertBatch(w, mask, keys{addrs: &addrs}, keyOffs, extBases, extHiQ)
}

// insertBatch is InsertBatch's body; own locates the lanes' k-mers (the
// keyOffs, as device addresses).
func (t Table) insertBatch(w *simt.Warp, mask simt.Mask, own keys, keyOffs, extBases *simt.Vec, extHiQ simt.Mask) error {
	hashes := hashKmers(w, mask, own, t.K)

	// Thread-collision groups. Lanes with equal hash are candidates; exact
	// equality is established by the key compare in the probe loop, but the
	// match mask is what the CUDA kernel uses to synchronize the group.
	w.MatchAny(mask, &hashes)

	// Loop bookkeeping runs under the constant launch mask, so the per-probe
	// ICtrl accounting batches into one ExecN flushed at every exit —
	// bit-identical totals (the counters are commutative sums), one stats
	// update instead of one per probe.
	slots := hashes
	pending := mask
	probes := uint64(0)
	cmp := simt.Splat(Empty)
	zero := simt.Splat(0)
	for pending != 0 {
		if probes++; probes > t.Capacity+1 {
			// The §3.2 sizing guarantees space for every k-mer; probing
			// past capacity means the driver mis-sized the table.
			w.ExecN(simt.ICtrl, mask, int(probes-1))
			return ErrTableFull
		}
		entries := t.entryAddr(&slots)

		// Try to claim: CAS(keyOff, Empty, myKeyOff).
		observed := w.AtomicCAS(pending, &entries, &cmp, keyOffs, 4)

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

		// Winner initializes the entry inside the synchronized block
		// (§3.3): the clear memsets the table to 0xFF, so the claiming
		// lane must zero the count and extension words before any
		// colliding lane updates them.
		if claimed != 0 {
			var a simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offCount
			}
			w.StoreGlobal(claimed, &a, 4, &zero)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtHi
			}
			w.StoreGlobal(claimed, &a, 8, &zero)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtLo
			}
			w.StoreGlobal(claimed, &a, 8, &zero)
			w.SyncWarp(pending)
		}

		// Occupied slots: the stored key may still be our k-mer inserted
		// by another lane or an earlier read (match), or a genuine hash
		// collision (probe on).
		matched := claimed
		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = uint64(t.SeqBase) + observed[lane]
				}
			}
			matched |= keysEqual(w, occupied, keys{addrs: &storedAddrs}, own, t.K)
		}

		if matched != 0 {
			t.updateCounts(w, matched, &entries, extBases, extHiQ)
		}

		// Advance unmatched occupied lanes to the next slot: linear probe.
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
	w.ExecN(simt.ICtrl, mask, int(probes)) // batched loop bookkeeping
	return nil
}

// updateCounts bumps count and the extension counters for matched lanes.
func (t Table) updateCounts(w *simt.Warp, matched simt.Mask, entries, extBases *simt.Vec, extHiQ simt.Mask) {
	one := simt.Splat(1)

	var countAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		countAddrs[lane] = entries[lane] + offCount
	}
	w.AtomicAdd(matched, &countAddrs, &one, 4)

	var hiMask, loMask simt.Mask
	var extAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !matched.Has(lane) {
			continue
		}
		if extBases[lane] == NoExt {
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
		w.AtomicAdd(hiMask, &extAddrs, &one, 2)
	}
	if loMask != 0 {
		w.AtomicAdd(loMask, &extAddrs, &one, 2)
	}
}

// InsertLane inserts a single k-mer from one lane (the v1 kernel's
// one-thread-per-table construction). All other lanes are predicated off,
// which is exactly the inefficiency Figs 8 and 10 quantify.
func (t Table) InsertLane(w *simt.Warp, lane int, keyOff uint32, extBase byte, extHiQ bool) error {
	m := simt.LaneMask(lane)
	var keyOffs, extBases simt.Vec
	keyOffs[lane] = uint64(keyOff)
	extBases[lane] = uint64(extBase)
	var hiq simt.Mask
	if extHiQ {
		hiq = m
	}
	return t.InsertBatch(w, m, &keyOffs, &extBases, hiq)
}

// absKeys converts arena offsets to absolute device addresses.
func (t Table) absKeys(keyOffs *simt.Vec) simt.Vec {
	var out simt.Vec
	for lane := range out {
		out[lane] = uint64(t.SeqBase) + keyOffs[lane]
	}
	return out
}
