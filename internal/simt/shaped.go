package simt

import (
	"encoding/binary"
	"math/bits"
)

// Shape-declared memory ops (DESIGN.md §12, "Shape-declared ops"). The
// paper's v2 kernel is built around two access shapes — a warp memsets its
// own table with consecutive lanes on consecutive words, and a warp's lanes
// take consecutive k-mers of one read (§3.3, Fig 7). LoadGlobal/StoreGlobal
// rediscover such a shape from a 32-entry address vector on every
// instruction; the ops below take the shape as arguments, do the memory
// work in bulk and compute the counters the per-lane instruction stream
// would have produced. They are bit-identical to that stream — same Stats,
// same memory — which oracle_test.go checks by replaying each call as the
// refWarp ops it stands for.

// sector returns the sector index holding byte address a.
func (w *Warp) sector(a uint64) uint64 { return a >> w.sbShift }

// spanSectors counts the sectors overlapped by the n > 0 bytes at a.
func (w *Warp) spanSectors(a, n uint64) uint64 {
	return w.sector(a+n-1) - w.sector(a) + 1
}

// chunkShape describes the iterations this warp executes of the
// grid-strided loop
//
//	for first := part * WarpSize; first < n; first += parts * WarpSize
//
// in which lane l handles element first+l when that is below n: full
// iterations run under FullMask, and tail is the prefix mask of the one
// partial iteration (the last n%WarpSize elements) if it is this warp's,
// else 0. Warp part of parts cooperating warps; part ≥ 0 and parts ≥ 1.
func chunkShape(n, part, parts int) (full int, tail Mask) {
	if n <= 0 {
		return 0, 0
	}
	whole := n / WarpSize // iterations [0, whole) are full; iteration `whole` is the tail
	if part < whole {
		full = (whole-1-part)/parts + 1
	}
	if whole >= part && (whole-part)%parts == 0 {
		tail = PrefixMask(n % WarpSize)
	}
	return full, tail
}

// ExecChunks records one class-c warp instruction per iteration of the
// chunkShape loop, each under that iteration's mask — the loop bookkeeping
// a kernel issues beside a FillGlobal over the same range.
func (w *Warp) ExecChunks(c InstrClass, n, part, parts int) {
	full, tail := chunkShape(n, part, parts)
	w.execShape(c, full, tail)
}

func (w *Warp) execShape(c InstrClass, full int, tail Mask) {
	w.ExecN(c, FullMask, full)
	if tail != 0 {
		w.ExecN(c, tail, 1)
	}
}

// FillGlobal stores val to the n consecutive size-byte elements at base the
// way a warp-cooperative memset does, and stands for exactly this loop:
//
//	for first := part * WarpSize; first < n; first += parts * WarpSize {
//		// mask: lanes l with first+l < n;  addrs[l] = base + (first+l)*size
//		w.StoreGlobal(mask, &addrs, size, &Splat(val))
//	}
//
// A single warp clearing its own region passes part, parts = 0, 1; the
// warps of a grid-cooperative clear pass their ID and the grid size.
//
// Each iteration's store is one contiguous lane run, so its distinct
// sectors are the sectors its byte span overlaps; when an iteration's
// 32·size bytes are a whole number of sectors every full iteration sits at
// the same offset within a sector and the count is one multiplication.
func (w *Warp) FillGlobal(base Ptr, n, size int, val uint64, part, parts int) {
	checkSize(size)
	full, tail := chunkShape(n, part, parts)
	if full == 0 && tail == 0 {
		return
	}
	w.execShape(IStGlobal, full, tail)

	chunk := uint64(WarpSize * size)
	step := uint64(parts) * chunk
	first := uint64(base) + uint64(part)*chunk
	if full > 0 {
		if chunk%w.sb == 0 {
			w.stats.GlobalSectors += uint64(full) * w.spanSectors(first, chunk)
		} else {
			for i, a := 0, first; i < full; i, a = i+1, a+step {
				w.stats.GlobalSectors += w.spanSectors(a, chunk)
			}
		}
	}
	tailAt := uint64(base) + uint64(n/WarpSize)*chunk
	tailBytes := uint64(tail.Count() * size)
	if tail != 0 {
		w.stats.GlobalSectors += w.spanSectors(tailAt, tailBytes)
	}

	mem := w.Dev.mem
	if parts == 1 { // this warp's iterations are adjacent: one run to the end
		fillPattern(mem[first:uint64(base)+uint64(n*size)], size, val)
		return
	}
	for i, a := 0, first; i < full; i, a = i+1, a+step {
		fillPattern(mem[a:a+chunk], size, val)
	}
	if tail != 0 {
		fillPattern(mem[tailAt:tailAt+tailBytes], size, val)
	}
}

// fillPattern writes the size-byte little-endian pattern of val across b
// (a whole number of elements): one element, then doubling copies.
func fillPattern(b []byte, size int, val uint64) {
	if val == 0 {
		clear(b)
		return
	}
	storeLE(b, size, val)
	for done := size; done < len(b); done *= 2 {
		copy(b[done:], b[:done])
	}
}

// LoadGlobalStrided is LoadGlobal for lane-strided addresses: active lane l
// loads size bytes at base + l·stride into out[l]. Same counters as
// LoadGlobal on the address vector it stands for. Arithmetic wraps, so base
// may lie "below zero" when the lanes that would underflow are masked off;
// the active lanes' addresses themselves must not wrap.
func (w *Warp) LoadGlobalStrided(mask Mask, base, stride uint64, size int, out *Vec) {
	checkSize(size)
	w.ExecN(ILdGlobal, mask, 1)
	w.stats.GlobalSectors += w.stridedSectors(mask, base, stride, size)
	w.stats.MaxSerialMemChain += w.effGlobal
	// Hoisted loops for the two sizes the kernels load this way (bytes and
	// 8-byte key blocks); 2 and 4 go through loadLE.
	mem := w.Dev.mem
	switch {
	case size == 8 && mask == FullMask:
		for lane := range out {
			out[lane] = binary.LittleEndian.Uint64(mem[base+uint64(lane)*stride:])
		}
	case size == 8:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = binary.LittleEndian.Uint64(mem[base+uint64(lane)*stride:])
		}
	case size == 1:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = uint64(mem[base+uint64(lane)*stride])
		}
	default:
		for m := uint32(mask); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			out[lane] = loadLE(mem[base+uint64(lane)*stride:], size)
		}
	}
}

// StoreGlobalStrided is StoreGlobal for lane-strided addresses: active lane
// l stores the low size bytes of vals[l] at base + l·stride, in lane order.
func (w *Warp) StoreGlobalStrided(mask Mask, base, stride uint64, size int, vals *Vec) {
	checkSize(size)
	w.ExecN(IStGlobal, mask, 1)
	w.stats.GlobalSectors += w.stridedSectors(mask, base, stride, size)
	mem := w.Dev.mem
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		storeLE(mem[base+uint64(lane)*stride:], size, vals[lane])
	}
}

// stridedSectors counts the distinct sectors touched by size-byte accesses
// at base + l·stride over the active lanes l.
//
// Over a run of consecutive lanes the accesses lie in one byte span with a
// gap of stride−size bytes between neighbours (none when stride ≤ size, the
// consecutive-k-mer shape). A sector of the span goes untouched only if it
// fits inside a gap, so while the gap is shorter than a sector the count is
// the span's sectors: one subtraction. Otherwise (a sparse mask, or a wide
// stride) the addresses are still non-decreasing in lane order by
// construction, so sector indices appear in order and one forward pass
// counts each new one: no sortedness test and never coalesce's hash-set
// tier.
func (w *Warp) stridedSectors(mask Mask, base, stride uint64, size int) uint64 {
	if mask == 0 {
		return 0
	}
	sz := uint64(size)
	m := uint32(mask)
	lo := bits.TrailingZeros32(m)
	a := base + uint64(lo)*stride
	if run := m >> uint(lo); stride < sz+w.sb && run&(run+1) == 0 {
		lanes := uint64(bits.Len32(run))
		return w.spanSectors(a, (lanes-1)*stride+sz)
	}
	last := w.sector(a + sz - 1)
	n := last - w.sector(a) + 1
	for m &= m - 1; m != 0; m &= m - 1 {
		a = base + uint64(bits.TrailingZeros32(m))*stride
		if s1 := w.sector(a + sz - 1); s1 > last {
			if s0 := w.sector(a); s0 > last {
				n += s1 - s0 + 1
			} else {
				n += s1 - last
			}
			last = s1
		}
	}
	return n
}
