package gpuht

// The table clears and the own-key loads of InsertBatch are issued through
// simt's shape-declared ops (DESIGN.md §12, "Shape-declared ops"). The
// per-lane loops they replaced are kept here, verbatim, as the oracle: every
// test below runs the same work both ways on two devices holding the same
// bytes and demands equal KernelResults (every counter, the modeled time)
// and equal memory.

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/simt"
)

func refClearEntriesWarp(w *simt.Warp, base simt.Ptr, entries int) {
	totalWords := entries * EntryBytes / 8
	ones := simt.Splat(^uint64(0))
	for first := 0; first < totalWords; first += simt.WarpSize {
		var mask simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			word := first + lane
			if word >= totalWords {
				break
			}
			mask |= simt.LaneMask(lane)
			addrs[lane] = uint64(base) + uint64(word)*8
		}
		if mask == 0 {
			continue
		}
		w.StoreGlobal(mask, &addrs, 8, &ones)
		w.Exec(simt.ICtrl, mask)
	}
}

func refClearEntries(w *simt.Warp, base simt.Ptr, entries, totalWarps int) {
	emptyKey := simt.Splat(uint64(Empty))
	zero := simt.Splat(0)
	for first := w.ID * simt.WarpSize; first < entries; first += totalWarps * simt.WarpSize {
		var mask simt.Mask
		var a0, a8, a16, a24 simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			idx := first + lane
			if idx >= entries {
				break
			}
			mask |= simt.LaneMask(lane)
			e := uint64(base) + uint64(idx)*EntryBytes
			a0[lane], a8[lane], a16[lane], a24[lane] = e, e+8, e+16, e+24
		}
		if mask == 0 {
			continue
		}
		w.StoreGlobal(mask, &a0, 8, &emptyKey)
		w.StoreGlobal(mask, &a8, 8, &zero)
		w.StoreGlobal(mask, &a16, 8, &zero)
		w.StoreGlobal(mask, &a24, 8, &zero)
		w.Exec(simt.ICtrl, mask)
	}
}

func refClearVisited(w *simt.Warp, base simt.Ptr, slots, warpIdx, totalWarps int) {
	empty := simt.Splat(uint64(Empty))
	for first := warpIdx * simt.WarpSize; first < slots; first += totalWarps * simt.WarpSize {
		var mask simt.Mask
		var addrs simt.Vec
		for lane := 0; lane < simt.WarpSize; lane++ {
			idx := first + lane
			if idx >= slots {
				break
			}
			mask |= simt.LaneMask(lane)
			addrs[lane] = uint64(base) + uint64(idx)*4
		}
		if mask == 0 {
			continue
		}
		w.StoreGlobal(mask, &addrs, 4, &empty)
		w.Exec(simt.ICtrl, mask)
	}
}

// twoDevices returns two devices whose first n bytes (allocated) hold the
// same random data.
func twoDevices(t *testing.T, n int, seed int64) (a, b *simt.Device) {
	t.Helper()
	junk := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(junk)
	devs := [2]*simt.Device{testDevice(), testDevice()}
	for _, d := range devs {
		if _, err := d.Malloc(int64(n)); err != nil {
			t.Fatal(err)
		}
		d.WriteBytes(0, junk)
	}
	return devs[0], devs[1]
}

// sameRun launches live on a and ref on b and fails unless results and the
// first n bytes of memory agree.
func sameRun(t *testing.T, name string, a, b *simt.Device, n, warps int, live, ref func(w *simt.Warp)) {
	t.Helper()
	cfg := simt.KernelConfig{Name: name, Warps: warps, Sequential: true, LocalBytesPerLane: 64}
	got, err := a.Launch(cfg, live)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Launch(cfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%s: kernel results differ\nlive %+v\nref  %+v", name, got, want)
	}
	if !bytes.Equal(a.ReadBytes(0, n), b.ReadBytes(0, n)) {
		t.Errorf("%s: device memory differs", name)
	}
}

func TestClearsMatchPerLaneLoops(t *testing.T) {
	const arena = 3600*EntryBytes + 256
	for _, entries := range []int{0, 1, 7, 8, 31, 32, 33, 100, 3600} {
		for _, warps := range []int{1, 2, 3} {
			// An unaligned base moves the stores' sector phase.
			for _, base := range []simt.Ptr{64, 72} {
				a, b := twoDevices(t, arena, int64(entries))
				sameRun(t, "ClearEntries", a, b, arena, warps,
					func(w *simt.Warp) { ClearEntries(w, base, entries, warps) },
					func(w *simt.Warp) { refClearEntries(w, base, entries, warps) })
				sameRun(t, "ClearVisited", a, b, arena, warps,
					func(w *simt.Warp) { ClearVisited(w, base, entries, warps) },
					func(w *simt.Warp) { refClearVisited(w, base, entries, w.ID, warps) })
				sameRun(t, "ClearEntriesWarp", a, b, arena, 1,
					func(w *simt.Warp) { ClearEntriesWarp(w, base, entries) },
					func(w *simt.Warp) { refClearEntriesWarp(w, base, entries) })
				sameRun(t, "ClearVisitedWarp", a, b, arena, 1,
					func(w *simt.Warp) { ClearVisitedWarp(w, base, entries) },
					func(w *simt.Warp) { refClearVisited(w, base, entries, 0, 1) })
			}
		}
	}
}

// TestKeyFormsIssueSameStream checks the two forms of keys against each
// other where they meet: hashing and comparing the k-mers at base+lane
// through the run form and through the address vector it stands for gives
// the same values and the same counters, for full, sparse and single-lane
// masks (laneKey is the single-lane case).
func TestKeyFormsIssueSameStream(t *testing.T) {
	const arena = 4096
	rng := rand.New(rand.NewSource(3))
	masks := []simt.Mask{simt.FullMask, 0x0000ffff, 0x80010001, simt.LaneMask(0), simt.LaneMask(17), 0xfffffffe}
	for i := 0; i < 20; i++ {
		masks = append(masks, simt.Mask(rng.Uint32()))
	}
	for _, k := range []int{5, 8, 21, 33, 55, 77} {
		for _, mask := range masks {
			if mask == 0 {
				continue
			}
			base := uint64(100 + rng.Intn(1000))
			other := uint64(2000 + rng.Intn(1000))
			var addrs, others simt.Vec
			for lane := range addrs {
				addrs[lane] = base + uint64(lane)
				others[lane] = other + uint64(lane)
			}
			a, b := twoDevices(t, arena, int64(k))
			var hashes [2]simt.Vec
			var eqs [2]simt.Mask
			body := func(i int, own, cmp keys) func(w *simt.Warp) {
				return func(w *simt.Warp) {
					hashes[i] = hashKmers(w, mask, own, k)
					eqs[i] = keysEqual(w, mask, cmp, own, k) | keysEqual(w, mask, own, own, k)<<1
				}
			}
			sameRun(t, "keys", a, b, arena, 1,
				body(0, keys{base: base, run: true}, keys{base: other, run: true}),
				body(1, keys{addrs: &addrs}, keys{addrs: &others}))
			if hashes[0] != hashes[1] || eqs[0] != eqs[1] {
				t.Errorf("k=%d mask=%#x: run form and address form disagree", k, mask)
			}
		}
	}
}

// TestInsertBatchRunMatchesGeneral inserts the same batches through
// InsertBatch, which finds the lanes on consecutive k-mers and loads its own
// keys lane-strided, and through the general body called directly.
func TestInsertBatchRunMatchesGeneral(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(11))
	reads := make([][]byte, 12)
	for i := range reads {
		reads[i] = make([]byte, 60+rng.Intn(90))
		for j := range reads[i] {
			reads[i][j] = "ACGT"[rng.Intn(3)] // three letters: plenty of repeated k-mers
		}
	}
	type batch struct {
		mask     simt.Mask
		keyOffs  simt.Vec
		extBases simt.Vec
		hiq      simt.Mask
	}
	devs := [2]*simt.Device{testDevice(), testDevice()}
	var tabs [2]Table
	var batches []batch
	for i, d := range devs {
		seqBase, offs := buildArena(t, d, reads)
		tabs[i] = newTable(t, d, seqBase, k, 2048)
		if i > 0 {
			continue
		}
		for ri, r := range reads {
			nk := len(r) - k + 1
			for start := 0; start < nk; start += simt.WarpSize {
				var bt batch
				for lane := 0; lane < simt.WarpSize && start+lane < nk; lane++ {
					bt.mask |= simt.LaneMask(lane)
					bt.keyOffs[lane] = uint64(offs[ri]) + uint64(start+lane)
					bt.extBases[lane] = uint64(rng.Intn(4))
				}
				bt.hiq = simt.Mask(rng.Uint32())
				if rng.Intn(3) == 0 { // a sparse mask over the same run
					if m := bt.mask & simt.Mask(rng.Uint32()); m != 0 {
						bt.mask = m
					}
				}
				if _, ok := runOf(bt.mask, &bt.keyOffs); !ok {
					t.Fatalf("read %d start %d: consecutive k-mers not seen as a run", ri, start)
				}
				batches = append(batches, bt)
			}
		}
	}
	insert := func(tab Table, general bool) func(w *simt.Warp) {
		return func(w *simt.Warp) {
			for i := range batches {
				bt := &batches[i]
				var err error
				if general {
					addrs := tab.absKeys(&bt.keyOffs)
					err = tab.insertBatch(w, bt.mask, keys{addrs: &addrs}, &bt.keyOffs, &bt.extBases, bt.hiq)
				} else {
					err = tab.InsertBatch(w, bt.mask, &bt.keyOffs, &bt.extBases, bt.hiq)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}
	}
	n := int(tabs[0].Base) + int(Bytes(2048))
	sameRun(t, "InsertBatch", devs[0], devs[1], n, 1, insert(tabs[0], false), insert(tabs[1], true))

	// Offsets that jump (a read boundary inside the batch) are not a run.
	jump := batches[0].keyOffs
	jump[5] += 40
	if _, ok := runOf(simt.FullMask, &jump); ok {
		t.Error("jumping offsets taken for a run")
	}
}
