// Package gpuht implements the paper's warp-local k-mer hash table on the
// simt device (§3.2–3.3): open addressing with linear probing, CAS-claimed
// slots, match_any-based thread-collision resolution, and pointer-compressed
// keys — entries store a 4-byte offset into the candidate-reads arena
// instead of the k-mer bytes themselves (Fig 6), cutting per-key memory by
// ~k/4 and letting key loads ride the reads already resident in memory.
//
// The package also implements the §3.2 sizing policy: one flat allocation
// holds every per-extension table, with per-table slot counts of
// maxReadLen × nReads so the load factor never exceeds
// (l−k+1)/l ≤ (300−21+1)/300 ≈ 0.93.
package gpuht

import (
	"math/bits"

	"mhm2sim/internal/murmur"
	"mhm2sim/internal/simt"
)

// Entry layout (32 bytes, two sectors per four entries):
//
//	offset 0  u32  keyOff  — k-mer start offset in the reads arena; Empty if unclaimed
//	offset 4  u32  count   — occurrences of the k-mer
//	offset 8  4×u16 extHi  — high-quality counts of the following base (A,C,G,T)
//	offset 16 4×u16 extLo  — low-quality counts
//	offset 24 pad
const (
	EntryBytes = 32

	offKeyOff = 0
	offCount  = 4
	offExtHi  = 8
	offExtLo  = 16

	// Empty marks an unclaimed slot.
	Empty = 0xffffffff

	// NoExt marks a k-mer with no following base (suffix of its read).
	NoExt = 0xff

	// hashSeed seeds murmur for table placement.
	hashSeed = 0x5eed1ab5
)

// Ext is the extension object stored per k-mer: occurrence count plus
// quality-split counts of the base that follows the k-mer (§2.3).
type Ext struct {
	Count uint32
	Hi    [4]uint16
	Lo    [4]uint16
}

// Table describes one extension's k-mer hash table inside the flat
// allocation. Keys are offsets into the reads arena starting at SeqBase.
type Table struct {
	Base     simt.Ptr
	Capacity uint64
	SeqBase  simt.Ptr
	K        int
}

// Bytes returns the device bytes a table of n slots occupies.
func Bytes(slots int) int64 { return int64(slots) * EntryBytes }

// SlotsPerExtension returns the paper's table size for one contig
// extension: maxReadLen × nReads slots (§3.2). Sizing by l rather than
// l−k+1 keeps the load factor at or below (l−k+1)/l.
func SlotsPerExtension(maxReadLen, nReads int) int {
	if nReads <= 0 {
		return 0
	}
	return maxReadLen * nReads
}

// MaxKmers returns the worst-case distinct k-mers for one extension:
// (l−k+1) × r.
func MaxKmers(maxReadLen, k, nReads int) int {
	if maxReadLen < k || nReads <= 0 {
		return 0
	}
	return (maxReadLen - k + 1) * nReads
}

// HostSlots returns the slot count the host flat-table engine uses for an
// extension holding at most nKmers distinct k-mers: the smallest power of
// two ≥ 2·nKmers. The device table (SlotsPerExtension) follows the paper's
// l×r sizing because device memory is the scarce resource and a ~0.93 load
// factor is acceptable for warp-parallel probing; the host engine instead
// spends 2× the §3.2 (l−k+1)·r bound to keep the expected linear-probe
// chain short on a single core, and rounds to a power of two so probe
// wrap-around is a mask instead of a modulo.
func HostSlots(nKmers int) int {
	if nKmers <= 0 {
		return 0
	}
	slots := 1
	for slots < 2*nKmers {
		slots <<= 1
	}
	return slots
}

// LoadFactor returns the worst-case load factor of the §3.2 sizing policy
// for reads of length l and k-mers of length k: (l−k+1)/l.
func LoadFactor(l, k int) float64 {
	if l <= 0 || k <= 0 || k > l {
		return 0
	}
	return float64(l-k+1) / float64(l)
}

// hashBlocks is the number of 8-byte vector loads needed per key.
func hashBlocks(k int) int { return (k + 7) / 8 }

// Read-only vectors the kernels pass by address: CAS, store and add
// operands, and the lane-local offsets at which key block b is staged, for
// every k ≤ 255.
var (
	emptyVec = simt.Splat(Empty)
	zeroVec  = simt.Splat(0)
	oneVec   = simt.Splat(1)

	stageOffs = func() (v [(255 + 7) / 8]simt.Vec) {
		for b := range v {
			v[b] = simt.Splat(uint64(8 * b))
		}
		return v
	}()
)

// stageOff returns the lane-local offsets of key block b. Visited,
// LaneTables and LaneVisited put no bound on k, so a block past the shared
// vectors gets its offsets built in spill.
func stageOff(b int, spill *simt.Vec) *simt.Vec {
	if b < len(stageOffs) {
		return &stageOffs[b]
	}
	*spill = simt.Splat(uint64(8 * b))
	return spill
}

// keys says where each lane's k-mer bytes start: at addrs[lane], or — when
// run is set — at base+lane, the shape the v2 kernel is designed around
// (consecutive lanes on consecutive k-mers of one read, Fig 7). A run's
// block loads are issued lane-strided, so the simulator neither builds nor
// re-analyses an address vector per load; the instruction stream and every
// counter are those of the address form.
type keys struct {
	addrs *simt.Vec
	base  uint64
	run   bool
}

// keysAt locates the k-mers that start offs[lane] bytes into the arena at
// base: as a run when the active lanes' offsets are one (≤ 31 compares),
// otherwise by the addresses it writes to addrs.
func keysAt(mask simt.Mask, base simt.Ptr, offs, addrs *simt.Vec) keys {
	if first, ok := runOf(mask, offs); ok {
		return keys{base: uint64(base) + first, run: true}
	}
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addrs[lane] = uint64(base) + offs[lane]
	}
	return keys{addrs: addrs}
}

// runOf reports whether the active lanes' values are v[lane] = base + lane
// for one base, and returns it (wrapping: the base of a run whose low lanes
// are inactive may lie below zero).
func runOf(mask simt.Mask, v *simt.Vec) (base uint64, ok bool) {
	m := uint32(mask)
	first := bits.TrailingZeros32(m)
	base = v[first] - uint64(first)
	for m &= m - 1; m != 0; m &= m - 1 {
		if lane := bits.TrailingZeros32(m); v[lane] != base+uint64(lane) {
			return 0, false
		}
	}
	return base, true
}

// loadBlock loads the 8 bytes at byte offset off of each active lane's key.
func (ks keys) loadBlock(w *simt.Warp, mask simt.Mask, off uint64, out *simt.Vec) {
	if ks.run {
		w.LoadGlobalStrided(mask, ks.base+off, 1, 8, out)
		return
	}
	var a simt.Vec
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a[lane] = ks.addrs[lane] + off
	}
	w.LoadGlobal(mask, &a, 8, out)
}

// hashKmers gathers each active lane's k-mer bytes with 8-byte vector loads
// and writes the murmur hash per lane to out. Consecutive lanes pointing at
// consecutive k-mers of one read overlap heavily, so these loads coalesce —
// the v2 improvement visible in the roofline (Fig 9).
//
// The arena must have at least 7 bytes of slack after any k-mer (the
// over-read is masked out of the hash).
func hashKmers(w *simt.Warp, mask simt.Mask, ks keys, k int, out *simt.Vec) {
	nblk := hashBlocks(k)
	full := k / 8
	rem := k & 7
	// Stream each gathered block straight into the murmur state instead of
	// materializing per-lane word slices (which cost one allocation per
	// active lane per call on this hot path).
	init := murmur.Hash64Init(k, hashSeed)
	for m := uint32(mask); m != 0; m &= m - 1 {
		out[bits.TrailingZeros32(m)] = init
	}
	var loaded, spill simt.Vec
	for b := 0; b < nblk; b++ {
		ks.loadBlock(w, mask, uint64(8*b), &loaded)
		// The real kernel stages the key words in per-thread (local
		// memory) arrays before mixing — the local traffic §4.2 reports.
		if w.LocalBytesPerLane() >= 8*(b+1) {
			off := stageOff(b, &spill)
			w.StoreLocal(mask, off, 8, &loaded)
			w.LoadLocal(mask, off, 8, &loaded)
		}
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if b < full {
				out[lane] = murmur.Hash64Mix(out[lane], loaded[lane])
			} else {
				out[lane] = murmur.Hash64Tail(out[lane], loaded[lane], rem)
			}
		}
	}
	// Mixing arithmetic: ~4 integer ops per block plus finalization.
	w.ExecN(simt.IInt, mask, 4*nblk+3)

	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = murmur.Hash64Final(out[lane])
	}
}

// keysEqual compares, per active lane, the k bytes of key a against the k
// bytes of key b using 8-byte vector loads, returning the equality mask.
func keysEqual(w *simt.Warp, mask simt.Mask, a, b keys, k int) simt.Mask {
	nblk := hashBlocks(k)
	eq := mask
	var va, vb simt.Vec
	for blk := 0; blk < nblk && eq != 0; blk++ {
		a.loadBlock(w, eq, uint64(8*blk), &va)
		b.loadBlock(w, eq, uint64(8*blk), &vb)
		w.ExecN(simt.IInt, eq, 2) // mask + compare
		keep := uint64(^uint64(0))
		if rem := k - 8*blk; rem < 8 {
			keep = ^uint64(0) >> uint(64-8*rem)
		}
		for m := uint32(eq); m != 0; m &= m - 1 {
			if lane := bits.TrailingZeros32(m); (va[lane]^vb[lane])&keep != 0 {
				eq &^= simt.LaneMask(lane)
			}
		}
	}
	return eq
}

// entryAddr returns the address of the entry in slot (below Capacity).
func (t Table) entryAddr(slot uint64) uint64 {
	return uint64(t.Base) + slot*EntryBytes
}
