package gpucount

// clearWords and canonBatch issue their memory traffic through simt's
// shape-declared ops (DESIGN.md §12, "Shape-declared ops"). The per-lane
// loops they replaced are kept here, verbatim, as the oracle: the same work
// run both ways must give equal KernelResults, equal memory and — for the
// prologue — equal batches.

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/simt"
)

func refClearWords(w *simt.Warp, base simt.Ptr, words, totalWarps int) {
	zero := simt.Splat(0)
	for first := w.ID * simt.WarpSize; first < words; first += totalWarps * simt.WarpSize {
		var mask simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			word := first + lane
			if word >= words {
				break
			}
			mask |= simt.LaneMask(lane)
			addrs[lane] = uint64(base) + uint64(word)*8
		}
		if mask == 0 {
			continue
		}
		w.StoreGlobal(mask, &addrs, 8, &zero)
		w.Exec(simt.ICtrl, mask)
	}
}

func refCanonBatch(w *simt.Warp, b *warpBatch, seq []byte, readOff, start int, seqBase simt.Ptr, k int) {
	n := min(len(seq)-k+1-start, simt.WarpSize)
	mask := simt.FullMask >> uint(simt.WarpSize-n)
	b.mask, b.valid = mask, 0

	nblk := (k + 7) / 8
	var head [kmer.MaxK / 8]uint64
	var loaded simt.Vec
	for blk := 0; blk < nblk; blk++ {
		var addrs simt.Vec
		for lane := 0; lane < n; lane++ {
			addrs[lane] = uint64(seqBase) + uint64(readOff+start+lane+8*blk)
		}
		w.LoadGlobal(mask, &addrs, 8, &loaded)
		head[blk] = loaded[0]
	}
	var leftMask, rightMask simt.Mask
	var leftAddrs, rightAddrs simt.Vec
	for lane := 0; lane < n; lane++ {
		pos := start + lane
		if pos > 0 {
			leftMask |= simt.LaneMask(lane)
			leftAddrs[lane] = uint64(seqBase) + uint64(readOff+pos-1)
		}
		if pos+k < len(seq) {
			rightMask |= simt.LaneMask(lane)
			rightAddrs[lane] = uint64(seqBase) + uint64(readOff+pos+k)
		}
	}
	var leftBytes, rightBytes simt.Vec
	if leftMask != 0 {
		w.LoadGlobal(leftMask, &leftAddrs, 1, &leftBytes)
	}
	if rightMask != 0 {
		w.LoadGlobal(rightMask, &rightAddrs, 1, &rightBytes)
	}

	w.ExecN(simt.IInt, mask, 3*nblk+6)
	if start == 0 {
		b.sc = kmer.NewScanner(k)
		for i := 0; i < k-1; i++ {
			b.sc.Push(byte(head[i/8] >> uint(8*(i%8))))
		}
	}
	sh := uint(8 * ((k - 1) % 8))
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

func TestClearWordsMatchesPerLaneLoop(t *testing.T) {
	const arena = 1 << 16
	junk := make([]byte, arena)
	rand.New(rand.NewSource(5)).Read(junk)
	for _, words := range []int{0, 1, 31, 32, 33, 1000, 6 * 1024} {
		for _, warps := range []int{1, 3, 64} {
			var res [2]simt.KernelResult
			var mem [2][]byte
			for i, clear := range []func(*simt.Warp, simt.Ptr, int, int){clearWords, refClearWords} {
				dev := testDev()
				base, err := dev.Malloc(arena)
				if err != nil {
					t.Fatal(err)
				}
				dev.WriteBytes(base, junk)
				res[i], err = dev.Launch(simt.KernelConfig{Name: "clear", Warps: warps, Sequential: true}, func(w *simt.Warp) {
					clear(w, base+8, words, warps)
				})
				if err != nil {
					t.Fatal(err)
				}
				mem[i] = dev.ReadBytes(base, arena)
			}
			if res[0] != res[1] {
				t.Errorf("words=%d warps=%d: kernel results differ\nlive %+v\nref  %+v", words, warps, res[0], res[1])
			}
			if !bytes.Equal(mem[0], mem[1]) {
				t.Errorf("words=%d warps=%d: memory differs", words, warps)
			}
		}
	}
}

// TestCanonBatchMatchesPerLaneLoop walks the golden fixture (ambiguous and
// lowercase bases, reads shorter than k, batch boundaries; its first read
// sits at device address 0, so the left-neighbour base underflows) plus a
// one-window read through three prologues — canonBatch, the per-lane loop,
// and a replay of the record a canonBatch launch filled — and compares every
// batch, the warp's counters after it, and the kernel's counters.
func TestCanonBatchMatchesPerLaneLoop(t *testing.T) {
	type prologue func(w *simt.Warp, b *warpBatch, st *staged, rec *record, si, start int)
	canon := func(w *simt.Warp, b *warpBatch, st *staged, rec *record, si, start int) {
		before := w.Stats()
		canonBatch(w, b, st.seqs[si], st.offs[si], start, st.seqBase, st.k)
		rec.save(w, b, &before, si, start)
	}
	prologues := []prologue{
		func(w *simt.Warp, b *warpBatch, st *staged, _ *record, si, start int) {
			canon(w, b, st, nil, si, start)
		},
		func(w *simt.Warp, b *warpBatch, st *staged, _ *record, si, start int) {
			refCanonBatch(w, b, st.seqs[si], st.offs[si], start, st.seqBase, st.k)
		},
		func(w *simt.Warp, b *warpBatch, _ *staged, rec *record, si, start int) {
			rec.replay(w, b, si, start)
		},
	}
	type snapshot struct {
		b     warpBatch
		stats simt.Stats
	}
	for _, k := range []int{5, 21, 32, 33, 55} {
		seqs := append(goldenFixture(), randReads(rand.New(rand.NewSource(int64(k))), 1, k)...)
		var res [3]simt.KernelResult
		var batches [3][]snapshot
		for i, run := range prologues {
			dev := testDev()
			st, err := stageReads(dev, seqs, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.seqBase != 0 {
				t.Fatalf("reads staged at %d, want 0 (the underflow case)", st.seqBase)
			}
			walk := func(p prologue, rec *record, out *[]snapshot) (simt.KernelResult, error) {
				return dev.Launch(simt.KernelConfig{Name: "prologue", Warps: 1, Sequential: true}, func(w *simt.Warp) {
					var b warpBatch
					for si, seq := range st.seqs {
						for start := 0; start+k <= len(seq); start += simt.WarpSize {
							p(w, &b, &st, rec, si, start)
							// Lanes outside valid keep whatever an earlier batch left.
							s := snapshot{b: warpBatch{lanes: lanes{mask: b.mask, valid: b.valid}}, stats: w.Stats()}
							for lane := 0; lane < simt.WarpSize; lane++ {
								if b.valid.Has(lane) {
									s.b.keys[lane], s.b.lefts[lane], s.b.rights[lane] = b.keys[lane], b.lefts[lane], b.rights[lane]
								}
							}
							*out = append(*out, s)
						}
					}
				})
			}
			var rec *record
			if i == 2 {
				rec = newRecord(seqs, k)
				if _, err := walk(canon, rec, new([]snapshot)); err != nil {
					t.Fatal(err)
				}
				rec.full = true
			}
			if res[i], err = walk(run, rec, &batches[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, name := range []string{"per-lane loop", "replay"} {
			if res[0] != res[i+1] {
				t.Errorf("k=%d: %s: kernel results differ\nlive %+v\n%s %+v", k, name, res[0], name, res[i+1])
			}
			if len(batches[0]) != len(batches[i+1]) {
				t.Fatalf("k=%d: %d batches, %s %d", k, len(batches[0]), name, len(batches[i+1]))
			}
			for j := range batches[0] {
				if batches[0][j] != batches[i+1][j] {
					t.Fatalf("k=%d: %s: batch %d differs:\nlive %+v\n%s %+v", k, name, j, batches[0][j], name, batches[i+1][j])
				}
			}
		}
	}
}
