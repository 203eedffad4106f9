package simt

import (
	"encoding/binary"
	"math/bits"
)

// Mask is an active-lane mask, one bit per lane (bit i = lane i), exactly
// like the masks CUDA's *_sync intrinsics take.
type Mask uint32

// FullMask has all 32 lanes active.
const FullMask Mask = 0xffffffff

// Has reports whether lane is active in m.
func (m Mask) Has(lane int) bool { return m&(1<<uint(lane)) != 0 }

// Count returns the number of active lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// LaneMask returns a mask with only the given lane set.
func LaneMask(lane int) Mask { return 1 << uint(lane) }

// PrefixMask returns the mask of lanes [0, n), n clamped to [0, WarpSize]:
// the lanes at work in the last, partial iteration of a loop that hands 32
// consecutive elements to the warp at a time.
func PrefixMask(n int) Mask {
	if n <= 0 {
		return 0
	}
	if n >= WarpSize {
		return FullMask
	}
	return FullMask >> uint(WarpSize-n)
}

// FirstLane returns the lowest active lane, or -1 for an empty mask.
func (m Mask) FirstLane() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(m))
}

// Vec is one 32-lane register: a value per lane. Sub-word quantities live
// in the low bits, as in PTX. A memory op that produces a value per lane
// writes it through an out *Vec parameter: the active lanes are overwritten
// and the inactive lanes are left as they were.
type Vec [WarpSize]uint64

// Splat returns a Vec with v in every lane.
func Splat(v uint64) Vec {
	var out Vec
	for i := range out {
		out[i] = v
	}
	return out
}

// Warp is the execution context a kernel receives: one warp of 32 lanes,
// stepped in lockstep. All device memory access and all intrinsics go
// through Warp methods so the instruction and transaction counters see
// them.
type Warp struct {
	Dev *Device
	// ID is the global warp index within the launch ([0, Warps)).
	ID int

	stats     Stats
	localMem  []byte // lane-private arrays, lane-major
	sharedMem []byte // warp-shared scratch (see shared.go)
	perLane   int

	// Per-launch device constants, cached by reset so the memory-op hot
	// path never re-reads (or re-divides) the device config.
	sb        uint64 // sector size, a power of two ≥ 8 (Launch checks)
	sbShift   uint   // log2(sb)
	effGlobal uint64 // effective global-latency chain cost per access
	effLocal  uint64 // effective local-latency chain cost per access

	// Sector-dedup scratch for coalesceScan (fastpath.go). Generation-
	// stamped so it never needs clearing between calls or launches.
	coSec   [coSlots]uint64
	coStamp [coSlots]uint32
	coGen   uint32
	// Scratch is what an ordered launch's kern leaves for its Commit. It holds
	// what an earlier warp or launch left there, to reuse as capacity only.
	Scratch any
}

// reset (re)initializes a pooled warp context for one warp of one launch:
// counters cleared, device constants cached, and the local/shared arenas
// zeroed in place so a reused warp is bit-identical to a fresh one.
func (w *Warp) reset(d *Device, id, perLane int) {
	w.Dev = d
	w.ID = id
	w.perLane = perLane
	w.stats = Stats{}
	w.sb = uint64(d.Cfg.SectorBytes)
	w.sbShift = uint(bits.TrailingZeros64(w.sb))
	w.effGlobal = effLat(d.Cfg.GlobalLatency, d.Cfg.MemParallelism)
	w.effLocal = effLat(d.Cfg.LocalLatency, d.Cfg.MemParallelism)
	need := perLane * WarpSize
	if cap(w.localMem) < need {
		w.localMem = make([]byte, need)
	} else {
		w.localMem = w.localMem[:need]
		clear(w.localMem)
	}
	clear(w.sharedMem)
}

// Exec records one executed warp instruction of class c under mask. Kernels
// call this for arithmetic and control work; memory operations record
// themselves.
func (w *Warp) Exec(c InstrClass, mask Mask) { w.ExecN(c, mask, 1) }

// ExecN records n warp instructions of class c under mask.
func (w *Warp) ExecN(c InstrClass, mask Mask, n int) {
	active := uint64(mask.Count())
	w.stats.WarpInstrs[c] += uint64(n)
	w.stats.ThreadInstrs[c] += uint64(n) * active
	w.stats.PredicatedOff += uint64(n) * (WarpSize - active)
}

// Stats returns the warp's charges so far; TakeStats also clears them, and
// Charge adds a share back — within a warp every counter is a sum, the
// dependent-memory chain included. The commit half of an ordered launch whose
// warp can stop early uses them to charge the kern half, which ran ahead,
// only up to where the warp stopped.
func (w *Warp) Stats() Stats { return w.stats }

func (w *Warp) TakeStats() Stats {
	s := w.stats
	w.stats = Stats{}
	return s
}

func (w *Warp) Charge(s *Stats) {
	chain := w.stats.MaxSerialMemChain + s.MaxSerialMemChain
	w.stats.Add(s)
	w.stats.MaxSerialMemChain = chain
}

// LoadGlobal performs a per-lane global load of size bytes (1, 2, 4 or 8)
// into out. It records one ld.global warp instruction, the coalesced sector
// transactions, and one global latency on the warp's dependent chain.
func (w *Warp) LoadGlobal(mask Mask, addrs *Vec, size int, out *Vec) {
	w.ExecN(ILdGlobal, mask, 1)
	w.stats.GlobalSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effGlobal
	w.Dev.gather(mask, addrs, size, out)
}

// StoreGlobal performs a per-lane global store of size bytes.
func (w *Warp) StoreGlobal(mask Mask, addrs *Vec, size int, vals *Vec) {
	w.ExecN(IStGlobal, mask, 1)
	w.stats.GlobalSectors += w.coalesce(mask, addrs, size)
	w.Dev.scatter(mask, addrs, size, vals)
}

// AtomicCAS performs a per-lane compare-and-swap on global memory and
// writes the value observed before the operation to out (CUDA atomicCAS
// semantics). Lanes are resolved in lane order, which fixes a deterministic
// winner when several lanes target the same address — the "thread
// collision" situation of §3.3.
func (w *Warp) AtomicCAS(mask Mask, addrs, compare, val *Vec, size int, out *Vec) {
	w.ExecN(IAtomic, mask, 1)
	w.stats.AtomicSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effGlobal
	w.Dev.casLoop(mask, addrs, compare, val, size, out)
}

// AtomicAdd performs a per-lane atomic add on global memory. Same-address
// lanes serialize in lane order. The prior values atomicAdd returns on CUDA
// are not produced: no kernel here reads them.
func (w *Warp) AtomicAdd(mask Mask, addrs, delta *Vec, size int) {
	w.ExecN(IAtomic, mask, 1)
	w.stats.AtomicSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effGlobal
	w.Dev.addLoop(mask, addrs, delta, size)
}

// localAddr maps a lane's private byte offset to the lane-major local arena.
func (w *Warp) localAddr(lane int, off uint64) uint64 {
	return uint64(lane)*uint64(w.perLane) + off
}

// LoadLocal reads size bytes at each active lane's private offset into
// out. Local memory is interleaved on real hardware so same-offset accesses
// coalesce perfectly; transactions are counted accordingly.
func (w *Warp) LoadLocal(mask Mask, offs *Vec, size int, out *Vec) {
	checkSize(size)
	w.ExecN(ILdLocal, mask, 1)
	w.addLocalTraffic(mask, size)
	w.stats.MaxSerialMemChain += w.effLocal
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = loadLE(w.localMem[w.localAddr(lane, offs[lane]):], size)
	}
}

// StoreLocal writes size bytes at each active lane's private offset.
func (w *Warp) StoreLocal(mask Mask, offs *Vec, size int, vals *Vec) {
	checkSize(size)
	w.ExecN(IStLocal, mask, 1)
	w.addLocalTraffic(mask, size)
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		storeLE(w.localMem[w.localAddr(lane, offs[lane]):], size, vals[lane])
	}
}

func (w *Warp) addLocalTraffic(mask Mask, size int) {
	bytes := uint64(mask.Count()) * uint64(size)
	w.stats.LocalSectors += w.sector(bytes + w.sb - 1)
}

// LocalBytesPerLane returns the private local-memory size each lane has.
func (w *Warp) LocalBytesPerLane() int { return w.perLane }

// Shfl broadcasts the value held by srcLane to every active lane
// (__shfl_sync with a scalar source), returning the resulting vector.
//
// If srcLane is out of range or inactive in mask — undefined behavior on
// real CUDA hardware — the result is defined here as all-zero lanes, so a
// kernel bug yields a stable, testable value instead of a stale register
// read.
func (w *Warp) Shfl(mask Mask, vals *Vec, srcLane int) Vec {
	w.ExecN(IShfl, mask, 1)
	var out Vec
	if srcLane < 0 || srcLane >= WarpSize || !mask.Has(srcLane) {
		return out
	}
	v := vals[srcLane]
	for m := uint32(mask); m != 0; m &= m - 1 {
		out[bits.TrailingZeros32(m)] = v
	}
	return out
}

// SyncWarp records a __syncwarp. Execution here is already lockstep; the
// call documents and costs the synchronization points of the real kernel.
func (w *Warp) SyncWarp(mask Mask) { w.ExecN(ISync, mask, 1) }

// loadLE reads size little-endian bytes: the one sized decode behind local,
// shared and strided global accesses. The op has checked the size (checkSize),
// so whatever is not 1, 2 or 4 is 8.
func loadLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// storeLE writes size little-endian bytes, mirroring loadLE.
func storeLE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
