package gpuht

import (
	"math/bits"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/murmur"
	"mhm2sim/internal/simt"
)

// hashBlocks is the number of 8-byte vector loads needed per raw key.
func hashBlocks(k int) int { return (k + 7) / 8 }

// keyWords is the number of 64-bit words a packed k-mer fills.
func keyWords(k int) int { return (k + 31) / 32 }

// Read-only vectors the kernels pass by address: CAS, store and add
// operands, the lane-local offset key block or word b is staged at, and k
// in every lane (a Table's or Visited's lanesK).
var (
	emptyVec = simt.Splat(Empty)
	zeroVec  = simt.Splat(0)
	oneVec   = simt.Splat(1)

	stageOffs = func() (v [MaxK / 8]simt.Vec) {
		for b := range v {
			v[b] = simt.Splat(uint64(8 * b))
		}
		return v
	}()

	laneK = func() (v [MaxK + 1][simt.WarpSize]int) {
		for k := range v {
			for lane := range v[k] {
				v[k][lane] = k
			}
		}
		return v
	}()
)

// lanesK is each lane's k; all is that k when every lane has it (a Table's
// or Visited's), else 0 (LaneTables' and LaneVisited's lanes have their own).
type lanesK struct {
	each *[simt.WarpSize]int
	all  int
}

// Keys is one k-mer per lane as the kernels hold it in registers once
// loaded. A pure k-mer (upper-case A, C, G, T only) is its 2-bit codes,
// base i in bits 2(i%32) of Words[i/32], the bits past k zero. An impure
// one is only its bytes, so it keeps their raw-arena address (Impure,
// Addr). No pure k-mer equals an impure one, so the classes may hash apart.
type Keys struct {
	Words  [MaxK / 32]simt.Vec
	Addr   simt.Vec
	Impure simt.Mask
	Next   simt.Vec // the code of the base after each k-mer, from a packed run
}

// rawAddrs writes to addrs, for the lanes of mask, the address of the
// k-mer offs[lane] bytes into the raw arena at base, and returns addrs.
func rawAddrs(mask simt.Mask, base simt.Ptr, offs, addrs *simt.Vec) *simt.Vec {
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addrs[lane] = uint64(base) + offs[lane]
	}
	return addrs
}

// isRun reports whether the active lanes' values are v[lane] = base + lane
// for one base: consecutive k-mers of one read.
func isRun(mask simt.Mask, v *simt.Vec) bool {
	m, first := uint32(mask), bits.TrailingZeros32(uint32(mask))
	base := v[first] - uint64(first)
	for m &= m - 1; m != 0; m &= m - 1 {
		if lane := bits.TrailingZeros32(m); v[lane] != base+uint64(lane) {
			return false
		}
	}
	return true
}

// loadBlock loads the 8 bytes at byte offset off of each active lane's
// raw key, which starts at addrs[lane].
func loadBlock(w *simt.Warp, mask simt.Mask, addrs *simt.Vec, off uint64, out *simt.Vec) {
	if bits.OnesCount32(uint32(mask)) == 1 { // one lane, the walk's: a stride, no address vector
		lane := uint64(mask.FirstLane())
		w.LoadGlobalStrided(mask, addrs[lane]+off-lane, 1, 8, out)
		return
	}
	var a simt.Vec
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a[lane] = addrs[lane] + off
	}
	w.LoadGlobal(mask, &a, 8, out)
}

// widest returns the largest k of the lanes in mask, and in wide[j] the
// lanes of mask whose k-mer reaches past j units of size bases.
func widest(mask simt.Mask, k lanesK, size int) (kmax int, wide [MaxK / 8]simt.Mask) {
	if k.all != 0 {
		for j := 0; j*size < k.all; j++ {
			wide[j] = mask
		}
		return k.all, wide
	}
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		kmax = max(kmax, k.each[lane])
		for j := 0; j*size < k.each[lane]; j++ {
			wide[j] |= simt.LaneMask(lane)
		}
	}
	return kmax, wide
}

// classify returns the lanes of mask whose key offset is flagged Packed,
// and whether all of them are one run (consecutive k-mers of one read).
func classify(mask simt.Mask, offs *simt.Vec) (packed simt.Mask, run bool) {
	if isRun(mask, offs) && offs[bits.TrailingZeros32(uint32(mask))]&Packed != 0 {
		return mask, true
	}
	for m := uint32(mask); m != 0; m &= m - 1 {
		if lane := bits.TrailingZeros32(m); offs[lane]&Packed != 0 {
			packed |= simt.LaneMask(lane)
		}
	}
	return packed, false
}

// loadKeys loads into ks the k-mers at the active lanes' key offsets:
// those flagged Packed from the packed arena at packBase, the rest from
// the raw arena at seqBase. A warp-cooperative caller (coop: the v2
// kernel, not v1's thread-per-table lanes) loads a run as one segment.
func loadKeys(w *simt.Warp, mask simt.Mask, offs *simt.Vec, seqBase, packBase simt.Ptr, k lanesK, ks *Keys, coop bool) {
	packed, run := classify(mask, offs)
	ks.Impure &^= mask
	if run && coop { // run implies every lane packed
		loadRun(w, packed, packBase, offs, k, ks)
	} else if packed != 0 {
		loadPacked(w, packed, packBase, offs, k, ks, nil)
	}
	if raw := mask &^ packed; raw != 0 {
		var addrs simt.Vec
		loadRaw(w, raw, rawAddrs(raw, seqBase, offs, &addrs), k, ks)
	}
}

// runWord returns word j of the k-mer of k bases that starts pos bases
// into the segment words: a funnel shift of two of them.
func runWord(words *simt.Vec, pos uint, j, k int) uint64 {
	q, r := pos/32+uint(j), 2*(pos%32)
	word := words[q]>>r | words[q+1]<<(64-r)
	if 32*(j+1) >= k { // its last word: clear the bits past the k-mer
		word &= ^uint64(0) >> (63 - uint(2*k-1)&63)
	}
	return word
}

// segment is the run form's load: one lane-strided load of the packed
// words from the byte holding the first base of the lowest lane's k-mer
// through the base after the highest lane's, and one Shfl broadcast per
// word. It leaves in seg the words every lane then holds and returns where
// in them lane 0's k-mer starts (lane l's at pos0 + l). The broadcasts are
// costed, not computed: each would hand every lane seg[j].
func segment(w *simt.Warp, mask simt.Mask, base simt.Ptr, offs *simt.Vec, kmax int, seg *simt.Vec) (pos0 int) {
	lo := bits.TrailingZeros32(uint32(mask))
	hi := 31 - bits.LeadingZeros32(uint32(mask))
	o := offs[lo] &^ Packed
	n := (int(o%4)+hi-lo+kmax)/32 + 1
	w.LoadGlobalStrided(simt.PrefixMask(n), uint64(base)+o/4, 8, 8, seg)
	w.ExecN(simt.IShfl, mask|simt.PrefixMask(n), n)
	return int(o%4) - lo
}

// loadRun loads into ks the packed k-mers at the lanes' base offsets
// (offs, flagged Packed), which are consecutive k-mers of one read (Fig 7).
// The lanes share one segment load — 2 words for 32 windows of k = 27 —
// and funnel-shift their k-mer, and the base after it (ks.Next), out of
// the broadcast words. The packed arena keeps a word of slack after its
// last base.
func loadRun(w *simt.Warp, mask simt.Mask, base simt.Ptr, offs *simt.Vec, k lanesK, ks *Keys) {
	kmax, _ := widest(mask, k, 32)
	var words simt.Vec
	pos0 := segment(w, mask, base, offs, kmax, &words)
	w.ExecN(simt.IInt, mask, 3*keyWords(kmax)+2) // funnel shifts, trim, next base
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		pos, kk := uint(pos0+lane), k.each[lane]
		for j := 0; j < keyWords(kk); j++ {
			ks.Words[j][lane] = runWord(&words, pos, j, kk)
		}
		next := pos + uint(kk)
		ks.Next[lane] = words[next/32] >> (2 * (next % 32)) & 3
	}
}

// loadPacked gathers the packed k-mers at the lanes' base offsets (offs,
// flagged Packed): into ks when own is nil, else only to compare them with
// own's pure k-mers, returning the lanes that are equal. Each lane loads 8
// bytes at a time from the byte holding its k-mer's first base, 1–2 loads
// for k ≤ 29–61, and a compare drops a lane at its first mismatch. The
// packed arena keeps a word of slack after its last base.
func loadPacked(w *simt.Warp, mask simt.Mask, base simt.Ptr, offs *simt.Vec, k lanesK, ks, own *Keys) simt.Mask {
	eq := mask
	// Load j holds bits 64j − r on of a k-mer starting r bits into load 0.
	var a, v simt.Vec
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a[lane] = uint64(base) + (offs[lane]&^Packed)/4
	}
	for j, jm := 0, mask; jm != 0; j++ {
		w.LoadGlobal(jm, &a, 8, &v)
		w.ExecN(simt.IInt, jm, 3) // shift into place, trim, and store or compare
		next := simt.Mask(0)
		for m := uint32(jm); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			r, x, n := uint(2*((offs[lane]&^Packed)%4)), v[lane], keyWords(k.each[lane])
			if end := int(r) + 2*k.each[lane] - 64*j; end > 64 {
				next |= simt.LaneMask(lane)
				a[lane] += 8
			} else if end < 64 {
				x &= 1<<uint(end) - 1
			}
			if own == nil {
				if j > 0 {
					ks.Words[j-1][lane] |= x << (64 - r)
				}
				if j < n {
					ks.Words[j][lane] = x >> r
				}
				continue
			}
			var want uint64
			if j > 0 {
				want = own.Words[j-1][lane] >> (64 - r)
			}
			if j < n {
				want |= own.Words[j][lane] << r
			}
			if x ^= want; j == 0 {
				x >>= r // the bases before the k-mer's first
			}
			if x != 0 {
				eq &^= simt.LaneMask(lane)
			}
		}
		jm = next & eq
	}
	return eq
}

// matchStored returns the lanes of mask whose stored key (key offset
// stored[lane]) equals own's. Packed or raw, each lane gathers its stored
// key and compares it as the loads arrive, so most hash collisions cost
// one load; an impure own key compares by its bytes (bytesEqual).
func matchStored(w *simt.Warp, mask simt.Mask, own *Keys, stored *simt.Vec, seqBase, packBase simt.Ptr, k lanesK) simt.Mask {
	packed, _ := classify(mask, stored)
	var eq simt.Mask
	if p := packed &^ own.Impure; p != 0 { // an impure k-mer is never packed
		eq = loadPacked(w, p, packBase, stored, k, nil, own)
	}
	if raw := mask &^ packed; raw != 0 {
		var addrs simt.Vec
		rawAddrs(raw, seqBase, stored, &addrs)
		if b := raw & own.Impure; b != 0 {
			eq |= bytesEqual(w, b, &own.Addr, &addrs, k)
		}
		if p := raw &^ own.Impure; p != 0 {
			eq |= equalRaw(w, p, own, &addrs, k)
		}
	}
	return eq
}

// equalRaw compares own's pure k-mers with the raw ones at addrs, packing
// each 8-byte block in registers as it arrives: a lane drops out at its
// first block that differs, or that packing would lose.
func equalRaw(w *simt.Warp, mask simt.Mask, own *Keys, addrs *simt.Vec, k lanesK) simt.Mask {
	_, wide := widest(mask, k, 8)
	eq := mask
	var blk simt.Vec
	for b := 0; b < len(wide) && eq&wide[b] != 0; b++ {
		bm := eq & wide[b]
		loadBlock(w, bm, addrs, uint64(8*b), &blk)
		w.ExecN(simt.IInt, bm, 3) // pack, mask, compare
		for m := uint32(bm); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			n := min(8, k.each[lane]-8*b)
			codes, ok := dna.PackWord(blk[lane], n)
			if !ok || codes != own.Words[b/4][lane]>>uint(16*(b%4))&(1<<uint(2*n)-1) {
				eq &^= simt.LaneMask(lane)
			}
		}
	}
	return eq
}

// loadRaw gathers the raw k-mers at addrs in 8-byte blocks and packs each
// pure one into ks.Words in registers, so that it keys exactly as the same
// k-mer loaded packed; the others it marks impure, keeping their
// addresses. The arena must hold 7 bytes of slack after any k-mer.
func loadRaw(w *simt.Warp, mask simt.Mask, addrs *simt.Vec, k lanesK, ks *Keys) {
	kmax, wide := widest(mask, k, 8)
	var impure simt.Mask
	var blk simt.Vec
	for b := 0; b < hashBlocks(kmax); b++ {
		loadBlock(w, wide[b], addrs, uint64(8*b), &blk)
		word, at := &ks.Words[b/4], uint(16*(b%4)) // a block's 8 bases never straddle words
		for m := uint32(wide[b]); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			codes, ok := dna.PackWord(blk[lane], min(8, k.each[lane]-8*b))
			if !ok {
				impure |= simt.LaneMask(lane)
			}
			word[lane] = word[lane]&(1<<at-1) | codes<<at
		}
	}
	w.ExecN(simt.IInt, mask, 3*hashBlocks(kmax)) // code lookups, shift-ors
	ks.Impure |= impure
	for m := uint32(impure); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		ks.Addr[lane] = addrs[lane]
	}
}

// hashKeys writes each active lane's table hash to out. A pure k-mer's
// words are staged through local memory, as the CUDA kernel stages its key
// (§4.2's local traffic), then mixed by murmur; an impure one hashBytes.
func hashKeys(w *simt.Warp, mask simt.Mask, ks *Keys, k lanesK, out *simt.Vec) {
	if imp := mask & ks.Impure; imp != 0 {
		hashBytes(w, imp, &ks.Addr, k, out)
		if mask &^= imp; mask == 0 {
			return
		}
	}
	kmax, wide := widest(mask, k, 32)
	nw := keyWords(kmax)
	for j := 0; j < nw && w.LocalBytesPerLane() >= 8*(j+1); j++ {
		w.StoreLocal(wide[j], &stageOffs[j], 8, &ks.Words[j])
		w.LoadLocal(wide[j], &stageOffs[j], 8, &ks.Words[j])
	}
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		n := keyWords(k.each[lane])
		h := murmur.Hash64Init(8*n, hashSeed)
		for j := 0; j < n; j++ {
			h = murmur.Hash64Mix(h, ks.Words[j][lane])
		}
		out[lane] = murmur.Hash64Final(h)
	}
	w.ExecN(simt.IInt, mask, 4*nw+3) // mixing, ~4 ops per word, and finalization
}

// hashBytes writes the murmur hash of each active lane's k.each[lane] bytes at
// addrs to out, gathered in 8-byte blocks (masked past k) and staged
// through local memory: the hash of impure keys and of visited windows.
func hashBytes(w *simt.Warp, mask simt.Mask, addrs *simt.Vec, k lanesK, out *simt.Vec) {
	kmax, wide := widest(mask, k, 8)
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = murmur.Hash64Init(k.each[lane], hashSeed)
	}
	var loaded simt.Vec
	nblk := hashBlocks(kmax)
	for b := 0; b < nblk; b++ {
		loadBlock(w, wide[b], addrs, uint64(8*b), &loaded)
		if w.LocalBytesPerLane() >= 8*(b+1) {
			w.StoreLocal(wide[b], &stageOffs[b], 8, &loaded)
			w.LoadLocal(wide[b], &stageOffs[b], 8, &loaded)
		}
		for m := uint32(wide[b]); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if rem := k.each[lane] - 8*b; rem < 8 {
				out[lane] = murmur.Hash64Tail(out[lane], loaded[lane], rem)
			} else {
				out[lane] = murmur.Hash64Mix(out[lane], loaded[lane])
			}
		}
	}
	w.ExecN(simt.IInt, mask, 4*nblk+3)
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = murmur.Hash64Final(out[lane])
	}
}

// bytesEqual compares, per active lane, the k.each[lane] bytes at a[lane]
// against those at b[lane] in 8-byte blocks, returning the equality mask.
func bytesEqual(w *simt.Warp, mask simt.Mask, a, b *simt.Vec, k lanesK) simt.Mask {
	_, wide := widest(mask, k, 8)
	eq := mask
	var va, vb simt.Vec
	for blk := 0; blk < len(wide) && eq&wide[blk] != 0; blk++ {
		bm := eq & wide[blk]
		loadBlock(w, bm, a, uint64(8*blk), &va)
		loadBlock(w, bm, b, uint64(8*blk), &vb)
		w.ExecN(simt.IInt, bm, 2) // mask + compare
		for m := uint32(bm); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			keep := ^uint64(0)
			if rem := k.each[lane] - 8*blk; rem < 8 {
				keep >>= uint(64 - 8*rem)
			}
			if (va[lane]^vb[lane])&keep != 0 {
				eq &^= simt.LaneMask(lane)
			}
		}
	}
	return eq
}
