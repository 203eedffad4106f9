package gpuht

import (
	"math/bits"

	"mhm2sim/internal/simt"
)

// LookupLane probes for the k-mer whose bytes start at the absolute device
// address keyAddr (typically inside the walk buffer), driven by a single
// lane — the DNA-walk phase runs on one thread per warp (§3.4), with the
// other 31 lanes predicated off. The lane packs the k-mer in registers
// (loadRaw). It returns the extension object and whether it was found.
func (t Table) LookupLane(w *simt.Warp, lane int, keyAddr uint64) (Ext, bool) {
	m := simt.LaneMask(lane)
	k := lanesK{&laneK[t.K], t.K}
	var own Keys
	var hashes, a, key simt.Vec
	a[lane] = keyAddr
	loadRaw(w, m, &a, k, &own)
	hashKeys(w, m, &own, k, &hashes)

	// Per-probe accounting (one IInt after the key load, one ICtrl per
	// continued probe) batches into two ExecN calls at the single exit
	// point — bit-identical totals, constant-mask loop.
	slot := hashes[lane] % t.Capacity
	iints, ictrls := 0, 0
	var ext Ext
	found := false
	for probes := uint64(0); probes <= t.Capacity; probes++ {
		entry := t.entryAddr(slot)
		a[lane] = entry + offKeyOff
		w.LoadGlobal(m, &a, 4, &key)
		iints++
		if key[lane] == Empty {
			break
		}

		if matchStored(w, m, &own, &key, t.SeqBase, t.PackBase, k) != 0 {
			var exts [simt.WarpSize]Ext
			loadExts(w, m, &a, &exts) // a[lane] is the entry: its key field is its first
			ext, found = exts[lane], true
			break
		}
		if slot++; slot == t.Capacity {
			slot = 0
		}
		ictrls++
	}
	w.ExecN(simt.IInt, m, iints)
	w.ExecN(simt.ICtrl, m, ictrls)
	return ext, found
}

// loadExts reads into exts[lane], for the lanes of mask, the extension
// object of the entry at entries[lane].
func loadExts(w *simt.Warp, mask simt.Mask, entries *simt.Vec, exts *[simt.WarpSize]Ext) {
	var a, count, hi, lo simt.Vec
	w.LoadGlobal(mask, fieldAddrs(mask, entries, offCount, &a), 4, &count)
	w.LoadGlobal(mask, fieldAddrs(mask, entries, offExtHi, &a), 8, &hi)
	w.LoadGlobal(mask, fieldAddrs(mask, entries, offExtLo, &a), 8, &lo)
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		e := &exts[lane]
		e.Count = uint32(count[lane])
		for b := 0; b < 4; b++ {
			e.Hi[b] = uint16(hi[lane] >> uint(16*b))
			e.Lo[b] = uint16(lo[lane] >> uint(16*b))
		}
	}
}

// Visited is the second per-extension table (§3.2): it records the walk
// offsets of k-mers already visited so cycles terminate the walk
// (Algorithm 2's loop_exists). Entries are 4-byte offsets into the walk
// buffer — the same pointer-compression trick as the main table, pointing
// into the walk buffer instead of a reads arena. The walk buffer stays
// bytes (the driver reads the extension back from it), so visited keys
// hash and compare by their bytes.
type Visited struct {
	Base     simt.Ptr
	Capacity uint64
	// BufBase is the walk buffer holding contig tail + appended bases.
	BufBase simt.Ptr
	K       int
}

// VisitedBytes returns the device bytes for a visited table of n slots.
func VisitedBytes(slots int) int64 { return int64(slots) * 4 }

// InsertLane records the k-mer starting at walk-buffer offset off, driven
// by a single lane. It returns true if that k-mer was already present —
// i.e. the walk has entered a cycle — and ErrProbeCycle if the walk ran
// longer than the visited set was sized for.
func (v Visited) InsertLane(w *simt.Warp, lane int, off uint32) (bool, error) {
	m := simt.LaneMask(lane)
	k := lanesK{&laneK[v.K], v.K}
	var own, stored, hashes, slotAddr, val, observed simt.Vec
	own[lane] = uint64(v.BufBase) + uint64(off)
	hashBytes(w, m, &own, k, &hashes)
	val[lane] = uint64(off)

	// Batched accounting, as in LookupLane: per-probe IInt/ICtrl counts
	// flush at the single exit with identical totals.
	slot := hashes[lane] % v.Capacity
	iints, ictrls := 0, 0
	seen := false
	var rerr error
	for probes := uint64(0); ; probes++ {
		if probes > v.Capacity {
			rerr = ErrProbeCycle
			break
		}
		slotAddr[lane] = uint64(v.Base) + slot*4
		w.AtomicCAS(m, &slotAddr, &emptyVec, &val, 4, &observed)
		iints++
		if observed[lane] == Empty {
			break // claimed: first visit
		}
		stored[lane] = uint64(v.BufBase) + observed[lane]
		if bytesEqual(w, m, &stored, &own, k) != 0 {
			seen = true // same k-mer seen before: cycle
			break
		}
		if slot++; slot == v.Capacity {
			slot = 0
		}
		ictrls++
	}
	w.ExecN(simt.IInt, m, iints)
	w.ExecN(simt.ICtrl, m, ictrls)
	return seen, rerr
}

// ClearEntriesWarp resets a run of hash-table entries using the 32 lanes
// of a single warp — the per-iteration table reset each warp performs
// before rebuilding its own table at a shifted k. Only the key field needs
// a defined value (Empty): the §3.3 protocol has the CAS winner initialize
// the rest of the entry inside the synchronized block, so the clear is a
// flat 0xFF memset whose stores coalesce perfectly (consecutive lanes,
// consecutive 8-byte words) — an option the v1 thread-per-table kernel
// does not have.
func ClearEntriesWarp(w *simt.Warp, base simt.Ptr, entries int) {
	words := entries * EntryBytes / 8
	w.FillGlobal(base, words, 8, ^uint64(0), 0, 1)
	w.ExecChunks(simt.ICtrl, words, 0, 1) // loop bookkeeping, one per store
}

// ClearEntries resets count/ext words to zero and key fields to Empty for a
// run of hash-table entries, cooperatively across the launch's warps: warp
// w handles entries w.ID, w.ID+totalWarps, ... with its 32 lanes striding
// entry-parallel — four stores per 32 entries, one per 8-byte field, each
// lane-strided by the entry size.
func ClearEntries(w *simt.Warp, base simt.Ptr, entries, totalWarps int) {
	for first := w.ID * simt.WarpSize; first < entries; first += totalWarps * simt.WarpSize {
		mask := simt.PrefixMask(entries - first)
		e := uint64(base) + uint64(first)*EntryBytes
		w.StoreGlobalStrided(mask, e, EntryBytes, 8, &emptyVec) // keyOff=Empty, count=0 in one u64
		w.StoreGlobalStrided(mask, e+8, EntryBytes, 8, &zeroVec)
		w.StoreGlobalStrided(mask, e+16, EntryBytes, 8, &zeroVec)
		w.StoreGlobalStrided(mask, e+24, EntryBytes, 8, &zeroVec)
		w.Exec(simt.ICtrl, mask)
	}
}

// ClearVisitedWarp resets a run of visited-table slots to Empty using a
// single warp's lanes.
func ClearVisitedWarp(w *simt.Warp, base simt.Ptr, slots int) {
	w.FillGlobal(base, slots, 4, Empty, 0, 1)
	w.ExecChunks(simt.ICtrl, slots, 0, 1) // loop bookkeeping, one per store
}
