package simt

import (
	"encoding/binary"
	"math/bits"
)

// Interpreter fast paths (DESIGN.md §12). The warp-interpretation loop is
// the global hot path of the figure suite: every modeled kernel funnels its
// memory traffic through coalesce + gather/scatter, so these routines are
// specialized for the access shapes the kernels actually produce —
// contiguous unit-stride lane runs (table clears, key gathers), sorted
// strided probes (entry addresses), and single-lane walks — while staying
// bit-identical to the straightforward reference implementations kept as
// test oracles in oracle_test.go.

// coalesce counts the distinct sectors touched by the active lanes.
//
// Three tiers, cheapest first: a closed-form count for a single active lane
// (the lane-0 mer-walk phase), a fused one-pass run count for non-decreasing
// addresses (contiguous gathers, strided probes — the overwhelmingly common
// shapes), and a hash-set general fallback for scattered addresses. Sectors
// are powers of two (Launch rejects a device whose SectorBytes is not), so
// a sector index is a shift. All tiers return exactly the distinct-sector
// count of the reference linear scan kept in oracle_test.go.
func (w *Warp) coalesce(mask Mask, addrs *Vec, size int) uint64 {
	if mask == 0 {
		return 0
	}
	sh := w.sbShift
	sz := uint64(size)
	// Single active lane: one access, closed form.
	if mask&(mask-1) == 0 {
		a := addrs[mask.FirstLane()]
		return (a+sz-1)>>sh - a>>sh + 1
	}
	// Sector ids of non-decreasing addresses appear in order, so one
	// forward pass counts distinct sectors; the first out-of-order
	// address bails to the hash-set tier.
	m := uint32(mask)
	prev := addrs[bits.TrailingZeros32(m)]
	last := (prev + sz - 1) >> sh
	n := last - prev>>sh + 1
	for m &= m - 1; m != 0; m &= m - 1 {
		a := addrs[bits.TrailingZeros32(m)]
		if a < prev {
			return w.coalesceScan(mask, addrs, sz)
		}
		prev = a
		if s1 := (a + sz - 1) >> sh; s1 > last {
			if s0 := a >> sh; s0 > last {
				n += s1 - s0 + 1
			} else {
				n += s1 - last
			}
			last = s1
		}
	}
	return n
}

// coSlots sizes the warp's sector-dedup hash set: a power of two holding
// the worst case (two sectors per lane, 64 entries) at ≤ 0.5 load.
const coSlots = 128

// coalesceScan is the general tier, for scattered unsorted addresses (the
// v1 kernel's 32 unrelated tables): sector ids deduplicate through a small
// open-addressing set kept on the warp. Generation stamps make clearing
// free — a slot is live only if its stamp matches the current call's — so
// the cost is O(active lanes) instead of the reference's O(n²) rescan.
func (w *Warp) coalesceScan(mask Mask, addrs *Vec, sz uint64) (n uint64) {
	w.coGen++
	if w.coGen == 0 { // stamp wraparound: invalidate all slots once
		for i := range w.coStamp {
			w.coStamp[i] = 0
		}
		w.coGen = 1
	}
	gen := w.coGen
	for m := uint32(mask); m != 0; m &= m - 1 {
		a := addrs[bits.TrailingZeros32(m)]
		s0, s1 := w.sector(a), w.sector(a+sz-1)
		for s := s0; s <= s1; s++ {
			h := (s * 0x9e3779b97f4a7c15) >> (64 - 7) // fibonacci hash to 7 bits
			for w.coStamp[h] == gen && w.coSec[h] != s {
				h = (h + 1) & (coSlots - 1)
			}
			if w.coStamp[h] != gen {
				w.coStamp[h] = gen
				w.coSec[h] = s
				n++
			}
		}
	}
	return n
}

// gather is the functional half of LoadGlobal: it reads size bytes at each
// active lane's address into out. The access-size switch is hoisted out of
// the lane loop, full-mask loops skip the per-lane mask test, and sparse
// masks iterate set bits only (the lane-0 walk pays for one lane, not 32).
func (d *Device) gather(mask Mask, addrs *Vec, size int, out *Vec) {
	mem := d.mem
	switch size {
	case 1:
		if mask == FullMask {
			for lane := 0; lane < WarpSize; lane++ {
				out[lane] = uint64(mem[addrs[lane]])
			}
			return
		}
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = uint64(mem[addrs[lane]])
		}
	case 2:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = uint64(binary.LittleEndian.Uint16(mem[addrs[lane]:]))
		}
	case 4:
		if mask == FullMask {
			for lane := 0; lane < WarpSize; lane++ {
				out[lane] = uint64(binary.LittleEndian.Uint32(mem[addrs[lane]:]))
			}
			return
		}
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = uint64(binary.LittleEndian.Uint32(mem[addrs[lane]:]))
		}
	case 8:
		if mask == FullMask {
			for lane := 0; lane < WarpSize; lane++ {
				out[lane] = binary.LittleEndian.Uint64(mem[addrs[lane]:])
			}
			return
		}
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = binary.LittleEndian.Uint64(mem[addrs[lane]:])
		}
	default:
		badSize(size)
	}
}

// scatter is the functional half of StoreGlobal, mirroring gather.
func (d *Device) scatter(mask Mask, addrs *Vec, size int, vals *Vec) {
	mem := d.mem
	switch size {
	case 1:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			mem[addrs[lane]] = byte(vals[lane])
		}
	case 2:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			binary.LittleEndian.PutUint16(mem[addrs[lane]:], uint16(vals[lane]))
		}
	case 4:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			binary.LittleEndian.PutUint32(mem[addrs[lane]:], uint32(vals[lane]))
		}
	case 8:
		if mask == FullMask {
			for lane := 0; lane < WarpSize; lane++ {
				binary.LittleEndian.PutUint64(mem[addrs[lane]:], vals[lane])
			}
			return
		}
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			binary.LittleEndian.PutUint64(mem[addrs[lane]:], vals[lane])
		}
	default:
		badSize(size)
	}
}

// casLoop resolves AtomicCAS lane by lane in lane order (the deterministic
// same-address winner of §3.3), with the size switch hoisted out of the
// loop. out receives the observed-before values for active lanes.
func (d *Device) casLoop(mask Mask, addrs, compare, val *Vec, size int, out *Vec) {
	mem := d.mem
	switch size {
	case 1:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			old := uint64(mem[addrs[lane]])
			out[lane] = old
			if old == compare[lane] {
				mem[addrs[lane]] = byte(val[lane])
			}
		}
	case 2:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			old := uint64(binary.LittleEndian.Uint16(p))
			out[lane] = old
			if old == compare[lane] {
				binary.LittleEndian.PutUint16(p, uint16(val[lane]))
			}
		}
	case 4:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			old := uint64(binary.LittleEndian.Uint32(p))
			out[lane] = old
			if old == compare[lane] {
				binary.LittleEndian.PutUint32(p, uint32(val[lane]))
			}
		}
	case 8:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			old := binary.LittleEndian.Uint64(p)
			out[lane] = old
			if old == compare[lane] {
				binary.LittleEndian.PutUint64(p, val[lane])
			}
		}
	default:
		badSize(size)
	}
}

// addLoop resolves AtomicAdd lane by lane in lane order, mirroring casLoop;
// the prior values are not kept (no kernel reads them).
func (d *Device) addLoop(mask Mask, addrs, delta *Vec, size int) {
	mem := d.mem
	switch size {
	case 1:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			mem[addrs[lane]] += byte(delta[lane])
		}
	case 2:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			binary.LittleEndian.PutUint16(p, binary.LittleEndian.Uint16(p)+uint16(delta[lane]))
		}
	case 4:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)+uint32(delta[lane]))
		}
	case 8:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			p := mem[addrs[lane]:]
			binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+delta[lane])
		}
	default:
		badSize(size)
	}
}

// effLat is the dependent-chain cost of one memory warp instruction: the
// raw latency divided by the warp's memory-level parallelism. Precomputed
// once per warp at launch (Warp.reset) instead of on every memory op.
func effLat(lat, mlp int) uint64 {
	mlp = max(mlp, 1)
	return uint64((lat + mlp - 1) / mlp)
}
