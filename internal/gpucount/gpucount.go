// Package gpucount prototypes the paper's stated future work ("we are
// moving towards offloading other modules of MetaHipMer to GPUs"): the
// k-mer analysis stage on the simt device. A device-wide hash table counts
// canonical k-mers and their left/right extension evidence with the same
// CAS-claim + linear-probing protocol the local-assembly tables use, and
// warps map lanes to consecutive k-mers so the sequence loads coalesce.
//
// Unlike local assembly's warp-private tables, this table (and CountBudget's
// Bloom cells) is shared by every warp in the launch — the "distributed data
// structures" challenge the conclusion names. Such kernels are ordered-commit
// launches (simt.KernelConfig.Commit, DESIGN.md §12): a warp's read-only half
// (gathers, canonicalisation, partition filter, Bloom admission, slot hash)
// runs on the device's warp pool and leaves a handoff; its Bloom adds or
// table insert run in warp order on the launching goroutine, so every
// counter, table layout and modeled time is the same on any number of cores.
package gpucount

import (
	"fmt"
	"math/bits"
	"slices"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/murmur"
	"mhm2sim/internal/simt"
)

// Entry layout (48 bytes):
//
//	offset 0  u32 state — empty (0) or full (2)
//	offset 4  u32 count
//	offset 8  u64 key   — canonical k-mer, packed (kmer.Kmer word 0; k ≤ 32)
//	offset 16 4×u32 left
//	offset 32 4×u32 right
const (
	entryBytes = 48

	offState = 0
	offCount = 4
	offKey   = 8

	stateEmpty = 0
	stateFull  = 2

	hashSeed = 0xc0117e8
)

// MaxK is the largest supported k (one packed word).
const MaxK = 32

// staged is the device-side layout of the reads every counting kernel
// walks: sequences copied back to back, one warp per sequence, grid-strided.
type staged struct {
	seqs    [][]byte
	offs    []int
	seqBase simt.Ptr
	k       int
	warps   int
}

// stageReads copies the reads to the device contiguously (8-byte slack for
// vector gathers).
func stageReads(dev *simt.Device, seqs [][]byte, k int) (staged, error) {
	st := staged{seqs: seqs, offs: make([]int, len(seqs)), k: k}
	total := 0
	for i, s := range seqs {
		st.offs[i] = total
		total += len(s)
	}
	var err error
	if st.seqBase, err = dev.Malloc(int64(total + 8)); err != nil {
		return st, err
	}
	for i, s := range seqs {
		dev.MemcpyHtoD(st.seqBase+simt.Ptr(st.offs[i]), s)
	}
	st.warps = min(max(len(seqs), 1), 4096)
	return st, nil
}

// Count runs GPU k-mer counting over the sequences and returns the counted
// table (read back to the host) plus the kernel result. The returned map
// is keyed by the canonical k-mer's packed word, with values equivalent to
// dbg's per-k-mer info.
func Count(dev *simt.Device, seqs [][]byte, k int) (map[uint64]*dbg.Info, simt.KernelResult, error) {
	if k < 4 || k > MaxK {
		return nil, simt.KernelResult{}, fmt.Errorf("gpucount: k %d outside [4,%d]", k, MaxK)
	}
	st, err := stageReads(dev, seqs, k)
	if err != nil {
		return nil, simt.KernelResult{}, err
	}

	// Table capacity: 2x the worst-case k-mer count (load factor ≤ 0.5).
	slots := 2*kmer.Windows(seqs, k) + 1
	// When the full-size table does not fit in device memory, take every
	// slot that does fit and let insertion surface gpuht.ErrTableFull once
	// the table genuinely fills — the caller-visible signal that this input
	// needs a memory budget (CountBudget).
	if free := dev.Cfg.GlobalMemBytes - dev.InUse(); int64(slots)*entryBytes > free {
		slots = int(free / entryBytes)
		if slots < 1 {
			return nil, simt.KernelResult{}, fmt.Errorf("gpucount: %w (no device memory for any table slot)", gpuht.ErrTableFull)
		}
	}
	tabBase, err := dev.Malloc(int64(slots) * entryBytes)
	if err != nil {
		return nil, simt.KernelResult{}, err
	}
	tab := newTable(tabBase, slots, 1)

	// The clear is its own launch: inside the counting kernel a later
	// warp's clear would wipe earlier warps' inserts.
	clearRes, err := dev.Launch(simt.KernelConfig{Name: "kmer_count_clear", Warps: st.warps}, func(w *simt.Warp) {
		clearWords(w, tabBase, slots*entryBytes/8, st.warps)
	})
	if err != nil {
		return nil, simt.KernelResult{}, err
	}

	var kernErr error
	cfg := simt.KernelConfig{Name: fmt.Sprintf("kmer_count_k%d", k), Warps: st.warps, Commit: tab.committer(&kernErr)}
	res, err := dev.Launch(cfg, st.countKernel(slots))
	if err != nil {
		return nil, simt.KernelResult{}, err
	}
	if kernErr != nil {
		return nil, simt.KernelResult{}, fmt.Errorf("gpucount: %w", kernErr)
	}
	res.Stats.Add(&clearRes.Stats)
	res.Time += clearRes.Time

	out := make(map[uint64]*dbg.Info)
	tab.forEachClaimed(dev, func(km kmer.Kmer, info dbg.Info) { out[km.W[0]] = &info })
	return out, res, nil
}

// clearWords zeroes a words×8-byte device region grid-cooperatively (a
// zeroed table entry is empty).
func clearWords(w *simt.Warp, base simt.Ptr, words, totalWarps int) {
	w.FillGlobal(base, words, 8, 0, w.ID, totalWarps)
	w.ExecChunks(simt.ICtrl, words, w.ID, totalWarps) // loop bookkeeping, one per store
}

// warpBatch is one warp's scratch for a batch of up to WarpSize consecutive
// k-mer windows of one read: the lanes in use, the lanes whose window is
// unambiguous, and for those the canonical key and the extension codes
// oriented to it (−1 when absent/ambiguous). A kernel declares one and
// forEachBatch refills it batch after batch.
type warpBatch struct {
	lanes
	keys          [simt.WarpSize]kmer.Kmer
	lefts, rights [simt.WarpSize]int
	win           int                   // CountBudget: the record index of lane 0's window
	hash          [simt.WarpSize]uint64 // CountBudget: each valid lane's one hash (record.save, load)
	// sc rolls along the read across its batches: a batch's lanes hold
	// consecutive windows and the next batch starts where this one ended,
	// so each lane adds exactly one base, the last of its window.
	sc kmer.Scanner
}

// lanes are a batch's lanes in use, those with a valid window, and those
// with a left and with a right neighbour base.
type lanes struct{ mask, valid, left, right simt.Mask }

// handoff is what the read-only half of a shared-structure kernel leaves in
// w.Scratch for its commit. Per batch with a surviving lane: the batch and
// survivor masks and (table kernels) the warp's charges so far. In words: the
// Bloom kernel's vector of cell offsets per batch, or a table kernel's record
// per surviving lane, in lane order — key words, first slot, extension codes.
type handoff struct {
	batches []batchRec
	stats   []simt.Stats
	words   []uint64
}

type batchRec struct{ mask, lanes simt.Mask }

// pushKeys hands the lanes' keys and first slots to the table's committer.
func (h *handoff) pushKeys(w *simt.Warp, b *warpBatch, lanes simt.Mask, words int, slot func(lane int) uint64) {
	w.ExecN(simt.IInt, lanes, 6)
	for m := uint32(lanes); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		h.words = append(append(h.words, b.keys[lane].W[:words]...), slot(lane),
			uint64(uint8(b.lefts[lane]))|uint64(uint8(b.rights[lane]))<<8)
	}
	h.batches, h.stats = append(h.batches, batchRec{b.mask, lanes}), append(h.stats, w.Stats())
}

// forEachBatch maps warps to sequences grid-strided; within a sequence,
// lanes take consecutive k-mers (coalesced gathers, as in the v2
// local-assembly kernel). It runs the shared prologue on every warp-width of
// windows and calls fn, with the warp's emptied handoff, on each batch that
// has a valid lane. The prologue is canonBatch, which also fills rec when
// there is one, or rec's replay once an earlier launch has filled it.
func forEachBatch(w *simt.Warp, st *staged, b *warpBatch, rec *record, fn func(h *handoff)) {
	h, _ := w.Scratch.(*handoff)
	if h == nil {
		h = new(handoff)
		w.Scratch = h
	}
	nb := 0 // room for the warp's batches, each a vector of Bloom words or a pass's records
	for si := w.ID; si < len(st.seqs); si += st.warps {
		nb += len(st.seqs[si])/simt.WarpSize + 1
	}
	*h = handoff{slices.Grow(h.batches[:0], nb), slices.Grow(h.stats[:0], nb), slices.Grow(h.words[:0], simt.WarpSize*nb)}
	for si := w.ID; si < len(st.seqs); si += st.warps {
		seq := st.seqs[si]
		for start := 0; start+st.k <= len(seq); start += simt.WarpSize {
			if rec != nil && rec.full {
				rec.replay(w, b, si, start)
			} else {
				before := w.Stats()
				canonBatch(w, b, seq, st.offs[si], start, st.seqBase, st.k)
				rec.save(w, b, &before, si, start)
			}
			if b.valid != 0 {
				fn(h)
			}
		}
	}
}

// record is a CountBudget call's host copy of its first walk's prologue,
// which every later launch of the call replays (DESIGN.md §15): per batch the
// lane masks and the sectors and chain canonBatch charged, per window its key
// words, extension codes and the high word of its hash, which picks its pass.
// A warp writes only its own reads' entries.
type record struct {
	words, nblk int
	full        bool  // an earlier launch filled it
	winOff      []int // per read: the index of its first window
	batchOff    []int // per read: the index of its first batch
	batches     []batchCost
	keys        []uint64 // words per window
	exts        []uint8  // left and right code, a nibble each (0xf: none)
	part        []uint32
}

type batchCost struct {
	lanes
	sectors, chain uint32
}

func newRecord(seqs [][]byte, k int) *record {
	r := &record{words: kmerWords(k), nblk: (k + 7) / 8, winOff: make([]int, len(seqs)), batchOff: make([]int, len(seqs))}
	windows, nb := 0, 0
	for i, s := range seqs {
		r.winOff[i], r.batchOff[i] = windows, nb
		n := max(len(s)-k+1, 0)
		windows, nb = windows+n, nb+(n+simt.WarpSize-1)/simt.WarpSize
	}
	r.batches, r.keys = make([]batchCost, nb), make([]uint64, windows*r.words)
	r.exts, r.part = make([]uint8, windows), make([]uint32, windows)
	return r
}

// save stores the batch canonBatch just filled and what it charged since
// before, and hashes its valid lanes' keys; without a record it does nothing.
func (r *record) save(w *simt.Warp, b *warpBatch, before *simt.Stats, si, start int) {
	if r == nil {
		return
	}
	after := w.Stats()
	r.batches[r.batchOff[si]+start/simt.WarpSize] = batchCost{b.lanes,
		uint32(after.GlobalSectors - before.GlobalSectors), uint32(after.MaxSerialMemChain - before.MaxSerialMemChain)}
	b.win = r.winOff[si] + start
	for m := uint32(b.valid); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		key := b.keys[lane].W[:r.words]
		copy(r.keys[(b.win+lane)*r.words:][:r.words], key)
		r.exts[b.win+lane] = uint8(b.lefts[lane])&0xf | uint8(b.rights[lane])<<4
		b.hash[lane] = kmer.HashWords(key, hashSeed)
		r.part[b.win+lane] = uint32(b.hash[lane] >> 32)
	}
}

// replay charges a batch's prologue as canonBatch charged it — the same
// instructions under the same masks, then one Charge of its sectors and
// chain, which are per-warp sums — and sets b's masks; load fills the lanes.
func (r *record) replay(w *simt.Warp, b *warpBatch, si, start int) {
	c := &r.batches[r.batchOff[si]+start/simt.WarpSize]
	w.ExecN(simt.ILdGlobal, c.mask, r.nblk)
	if c.left != 0 {
		w.Exec(simt.ILdGlobal, c.left)
	}
	if c.right != 0 {
		w.Exec(simt.ILdGlobal, c.right)
	}
	w.ExecN(simt.IInt, c.mask, 3*r.nblk+6)
	w.Charge(&simt.Stats{GlobalSectors: uint64(c.sectors), MaxSerialMemChain: uint64(c.chain)})
	b.lanes, b.win = c.lanes, r.winOff[si]+start
}

// load copies the lanes' key words and extension codes of a replayed batch
// out of the record and hashes their keys again.
func (r *record) load(b *warpBatch, lanes simt.Mask) {
	for m := uint32(lanes); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		key := r.keys[(b.win+lane)*r.words:][:r.words]
		copy(b.keys[lane].W[:], key)
		ext := int8(r.exts[b.win+lane])
		b.lefts[lane], b.rights[lane] = int(ext<<4>>4), int(ext>>4)
		b.hash[lane] = kmer.HashWords(key, hashSeed)
	}
}

// canonBatch is the shared prologue of every counting kernel: it gathers
// one warp-width of k-mer windows (those starting at start, start+1, …) from
// a staged read with 8-byte vector loads, gathers the neighbouring bases,
// and fills b with each lane's canonical key (skipping windows with
// ambiguous bases) and the extension codes oriented to the canonical
// strand. Keys are full packed k-mers so callers handle any k ≤ kmer.MaxK.
// The packing is rolled from the gathered words, one base per lane; only
// the first batch of a read primes the scanner from lane 0's window. A
// read's batches must therefore be passed in order, start = 0 first.
func canonBatch(w *simt.Warp, b *warpBatch, seq []byte, readOff, start int, seqBase simt.Ptr, k int) {
	n := min(len(seq)-k+1-start, simt.WarpSize)
	mask := simt.PrefixMask(n)
	b.mask, b.valid = mask, 0

	// Gather the k-mer bytes: ceil(k/8) vector loads cover every window.
	// The host keeps lane 0's words (the read's first window) and the last
	// load, which holds each lane's last base. Lane l's window starts at
	// first+l, so every load below is lane-strided by one byte.
	nblk := (k + 7) / 8
	first := uint64(seqBase) + uint64(readOff+start)
	var head [kmer.MaxK / 8]uint64
	var loaded simt.Vec
	for blk := 0; blk < nblk; blk++ {
		w.LoadGlobalStrided(mask, first+uint64(8*blk), 1, 8, &loaded)
		head[blk] = loaded[0]
	}
	// Neighbour bases (left of the k-mer, right of it) with bounds checks:
	// the read's first window has no left neighbour, windows ending at the
	// read's end no right one.
	leftMask, rightMask := mask, mask&simt.PrefixMask(len(seq)-k-start)
	if start == 0 {
		leftMask &^= 1
	}
	b.left, b.right = leftMask, rightMask
	var leftBytes, rightBytes simt.Vec
	if leftMask != 0 {
		// first−1 wraps below zero for a read at the very start of the
		// arena; lane 0, the only lane that would use it, is masked off.
		w.LoadGlobalStrided(leftMask, first-1, 1, 1, &leftBytes)
	}
	if rightMask != 0 {
		w.LoadGlobalStrided(rightMask, first+uint64(k), 1, 1, &rightBytes)
	}

	// Per lane: pack, canonicalize (ACGT only), derive oriented exts.
	w.ExecN(simt.IInt, mask, 3*nblk+6) // pack + rc + compare arithmetic
	if start == 0 {
		b.sc = kmer.NewScanner(k)
		for i := 0; i < k-1; i++ {
			b.sc.Push(byte(head[i/8] >> uint(8*(i%8))))
		}
	}
	sh := uint(8 * ((k - 1) % 8)) // a window's last base sits in the last word loaded
	for lane := 0; lane < n; lane++ {
		if !b.sc.Push(byte(loaded[lane] >> sh)) {
			continue
		}
		canon, isSelf := b.sc.Canonical()
		b.keys[lane] = *canon
		left, right := -1, -1
		if leftMask.Has(lane) {
			if c, ok := dna.Code(byte(leftBytes[lane])); ok {
				left = int(c)
			}
		}
		if rightMask.Has(lane) {
			if c, ok := dna.Code(byte(rightBytes[lane])); ok {
				right = int(c)
			}
		}
		if !isSelf {
			left, right = comp(right), comp(left)
		}
		b.valid |= simt.LaneMask(lane)
		b.lefts[lane], b.rights[lane] = left, right
	}
}

// countKernel is the read-only half of Count's kernel over a table of the
// given slots. Its one-word keys' slot hash mixes k into the key word
// (CountBudget's multi-word tables reduce their one HashK).
func (st *staged) countKernel(slots int) func(w *simt.Warp) {
	return func(w *simt.Warp) {
		var b warpBatch
		forEachBatch(w, st, &b, nil, func(h *handoff) {
			h.pushKeys(w, &b, b.valid, 1, func(lane int) uint64 {
				return murmur.Hash64Word(b.keys[lane].W[0], uint64(st.k), hashSeed) % uint64(slots)
			})
		})
	}
}

// table is a device hash table of CAS-claimed entries with words-word
// keys, shared by every warp of a launch. Its host-side bitmap marks the
// slots the committer claimed since it was last cleared, so read-back visits
// only those.
type table struct {
	base    simt.Ptr
	slots   int
	words   int
	claimed []uint64
}

func newTable(base simt.Ptr, slots, words int) table {
	return table{base: base, slots: slots, words: words, claimed: make([]uint64, (slots+63)/64)}
}

// forEachClaimed reads the claimed slots' entries back, in slot order.
func (t table) forEachClaimed(dev *simt.Device, fn func(km kmer.Kmer, info dbg.Info)) {
	eb, offL := entrySize(t.words), simt.Ptr(offKey+8*t.words)
	for i, word := range t.claimed {
		for ; word != 0; word &= word - 1 {
			e := t.base + simt.Ptr((64*i+bits.TrailingZeros64(word))*eb)
			var km kmer.Kmer
			for wd := 0; wd < t.words; wd++ {
				km.W[wd] = dev.ReadU64(e + offKey + simt.Ptr(8*wd))
			}
			info := dbg.Info{Count: dev.ReadU32(e + offCount)}
			for b := 0; b < 4; b++ {
				info.Left[b] = uint8(min(dev.ReadU32(e+offL+simt.Ptr(4*b)), dbg.MaxExtCount))
				info.Right[b] = uint8(min(dev.ReadU32(e+offL+16+simt.Ptr(4*b)), dbg.MaxExtCount))
			}
			fn(km, info)
		}
	}
}

// Read-only operands of the counting kernels' CAS and adds.
var (
	emptyVec = simt.Splat(stateEmpty)
	fullVec  = simt.Splat(stateFull)
	oneVec   = simt.Splat(1)
)

// committer returns the write half of the table kernels: it inserts a warp's
// handoff batch by batch and keeps the launch's first error, which is the
// lowest warp's because commits run in warp order. A warp that meets a full
// table stops there and is charged for its read-only half, which ran ahead,
// only up to that batch — what the halves charged as one interleaved kernel.
func (t table) committer(first *error) func(w *simt.Warp) {
	return func(w *simt.Warp) {
		h := w.Scratch.(*handoff)
		kern, recs := w.TakeStats(), h.words
		for i, r := range h.batches {
			n := r.lanes.Count() * (t.words + 2)
			if err := t.insert(w, r.mask, r.lanes, recs[:n]); err != nil {
				if kern = h.stats[i]; *first == nil {
					*first = err
				}
				break
			}
			recs = recs[n:]
		}
		w.Charge(&kern)
	}
}

// insert counts the pending lanes' keys and extensions (recs: pushKeys'
// records) into the table, probing linearly from each lane's first slot:
// CAS-claim an empty entry and write the key, or match the stored key, then
// bump the counters. It returns gpuht.ErrTableFull if the table has no space
// left.
func (t table) insert(w *simt.Warp, batch, pending simt.Mask, recs []uint64) error {
	slots := uint64(t.slots)
	ebase := uint64(entrySize(t.words))
	offL := uint64(offKey + 8*t.words)
	offR := offL + 16
	var rec [simt.WarpSize][]uint64 // lane's record
	var slotsV simt.Vec
	for m := uint32(pending); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		rec[lane], recs = recs[:t.words+2], recs[t.words+2:]
		slotsV[lane] = rec[lane][t.words]
	}
	// Loop bookkeeping under the constant batch mask batches into one ExecN
	// flushed at both exits (bit-identical totals).
	iters := 0
	var entries, a, vals, observed simt.Vec
	for guard := 0; pending != 0; guard++ {
		if guard > t.slots {
			w.ExecN(simt.ICtrl, batch, iters)
			return gpuht.ErrTableFull
		}
		for m := uint32(pending); m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			entries[lane] = uint64(t.base) + slotsV[lane]*ebase
			a[lane] = entries[lane] + offState
		}
		w.AtomicCAS(pending, &a, &emptyVec, &fullVec, 4, &observed)

		var claimed simt.Mask
		for m := uint32(pending); m != 0; m &= m - 1 {
			if lane := bits.TrailingZeros32(m); observed[lane] == stateEmpty {
				claimed |= simt.LaneMask(lane)
				t.claimed[slotsV[lane]/64] |= 1 << (slotsV[lane] % 64)
			}
		}
		occupied := pending &^ claimed
		// Winners write their key, one store per word.
		if claimed != 0 {
			for wd := 0; wd < t.words; wd++ {
				for m := uint32(claimed); m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					a[lane] = entries[lane] + offKey + uint64(8*wd)
					vals[lane] = rec[lane][wd]
				}
				w.StoreGlobal(claimed, &a, 8, &vals)
			}
			w.SyncWarp(pending)
		}
		// Occupied: compare all stored key words.
		matched := claimed
		if occupied != 0 {
			eq := occupied
			for wd := 0; wd < t.words; wd++ {
				for m := uint32(occupied); m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					a[lane] = entries[lane] + offKey + uint64(8*wd)
				}
				w.LoadGlobal(occupied, &a, 8, &vals)
				w.Exec(simt.IInt, occupied)
				for m := uint32(occupied); m != 0; m &= m - 1 {
					if lane := bits.TrailingZeros32(m); vals[lane] != rec[lane][wd] {
						eq &^= simt.LaneMask(lane)
					}
				}
			}
			matched |= eq
		}
		if matched != 0 {
			var lm, rm simt.Mask
			var la, ra simt.Vec
			for m := uint32(matched); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a[lane] = entries[lane] + offCount
				if left := int8(rec[lane][t.words+1]); left >= 0 {
					lm |= simt.LaneMask(lane)
					la[lane] = entries[lane] + offL + 4*uint64(left)
				}
				if right := int8(rec[lane][t.words+1] >> 8); right >= 0 {
					rm |= simt.LaneMask(lane)
					ra[lane] = entries[lane] + offR + 4*uint64(right)
				}
			}
			w.AtomicAdd(matched, &a, &oneVec, 4)
			if lm != 0 {
				w.AtomicAdd(lm, &la, &oneVec, 4)
			}
			if rm != 0 {
				w.AtomicAdd(rm, &ra, &oneVec, 4)
			}
		}
		pending &^= matched
		if pending != 0 {
			w.Exec(simt.IInt, pending)
			for m := uint32(pending); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if slotsV[lane]++; slotsV[lane] == slots {
					slotsV[lane] = 0
				}
			}
		}
		iters++
	}
	w.ExecN(simt.ICtrl, batch, iters)
	return nil
}

func comp(c int) int {
	if c < 0 {
		return -1
	}
	return c ^ 3
}
