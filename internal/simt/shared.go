package simt

// Shared memory: a per-warp scratch space modeling the per-block shared
// memory CUDA kernels stage hot data in (ADEPT keeps the query sequence
// there during alignment). Accesses are far cheaper than global memory and
// are counted separately; the bank model charges extra cycles when
// multiple lanes hit the same bank with different addresses (bank
// conflicts), as real hardware does.

// SharedBanks is the number of shared-memory banks (4-byte wide) on CUDA
// hardware.
const SharedBanks = 32

// sharedAlloc lazily sizes the warp's shared arena.
func (w *Warp) sharedEnsure(limit uint64) {
	if uint64(len(w.sharedMem)) < limit {
		grown := make([]byte, limit*2)
		copy(grown, w.sharedMem)
		w.sharedMem = grown
	}
}

// bankConflicts counts the maximum number of distinct 4-byte words mapped
// to one bank across the active lanes — the serialization factor of the
// access.
func bankConflicts(mask Mask, offs *Vec) int {
	var words [WarpSize]uint64
	var banks [WarpSize]int
	n := 0
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		word := offs[lane] / 4
		dup := false
		for i := 0; i < n; i++ {
			if words[i] == word {
				dup = true
				break
			}
		}
		if !dup {
			words[n] = word
			banks[n] = int(word % SharedBanks)
			n++
		}
	}
	maxPerBank := 1
	for b := 0; b < n; b++ {
		c := 0
		for i := 0; i < n; i++ {
			if banks[i] == banks[b] {
				c++
			}
		}
		maxPerBank = max(maxPerBank, c)
	}
	return maxPerBank
}

// LoadShared reads size bytes at each active lane's offset into the warp's
// shared arena. Bank conflicts serialize the access and are charged as
// additional replayed instructions.
func (w *Warp) LoadShared(mask Mask, offs *Vec, size int) Vec {
	checkSize(size)
	replays := bankConflicts(mask, offs)
	w.ExecN(ILdShared, mask, replays)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			w.sharedEnsure(offs[lane] + uint64(size))
			out[lane] = loadLE(w.sharedMem[offs[lane]:], size)
		}
	}
	return out
}

// StoreShared writes size bytes at each active lane's offset.
func (w *Warp) StoreShared(mask Mask, offs *Vec, size int, vals *Vec) {
	checkSize(size)
	replays := bankConflicts(mask, offs)
	w.ExecN(IStShared, mask, replays)
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			w.sharedEnsure(offs[lane] + uint64(size))
			storeLE(w.sharedMem[offs[lane]:], size, vals[lane])
		}
	}
}
