package gpuht

// The table clears, the key loads and the entry-field accesses of InsertBatch
// are issued through simt's shape-declared ops (DESIGN.md §12,
// "Shape-declared ops"). The per-lane loops they replaced — and the probe
// loop as it stood before ISSUE 20 — are kept here, verbatim, as
// the oracle: every test below runs the same work both ways on two devices
// holding the same bytes and demands equal KernelResults (every counter, the
// modeled time) and equal memory.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"mhm2sim/internal/murmur"
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
					hashKmers(w, mask, own, k, &hashes[i])
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
					addrs := tab.refAbsKeys(&bt.keyOffs)
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

// ---------------------------------------------------------------------------
// The probe round before it declared its shapes: insertBatch, updateCounts,
// hashKmers, entryAddr and absKeys as they stood, every entry-field access a
// LoadGlobal/StoreGlobal/AtomicCAS/AtomicAdd on a materialised address
// vector, the stored keys always read through their addresses, match_any
// really computed. Only the calls into simt follow its out-parameter
// signatures (through the shims below, which return the vector as the old
// ops did); keys.loadBlock and keysEqual are the live ones, so the stored-key run
// form is checked against the address form here as well.

func byLoadLocal(w *simt.Warp, mask simt.Mask, offs *simt.Vec, size int) (out simt.Vec) {
	w.LoadLocal(mask, offs, size, &out)
	return out
}

func byAtomicCAS(w *simt.Warp, mask simt.Mask, addrs, compare, val *simt.Vec, size int) (out simt.Vec) {
	w.AtomicCAS(mask, addrs, compare, val, size, &out)
	return out
}

func refHashKmers(w *simt.Warp, mask simt.Mask, ks keys, k int) simt.Vec {
	nblk := hashBlocks(k)
	full := k / 8
	rem := k & 7
	out := simt.Splat(murmur.Hash64Init(k, hashSeed))
	var loaded simt.Vec
	for b := 0; b < nblk; b++ {
		ks.loadBlock(w, mask, uint64(8*b), &loaded)
		if w.LocalBytesPerLane() >= 8*(b+1) {
			off := simt.Splat(uint64(8 * b))
			w.StoreLocal(mask, &off, 8, &loaded)
			loaded = byLoadLocal(w, mask, &off, 8)
		}
		if b < full {
			for lane := 0; lane < simt.WarpSize; lane++ {
				out[lane] = murmur.Hash64Mix(out[lane], loaded[lane])
			}
		} else {
			for lane := 0; lane < simt.WarpSize; lane++ {
				out[lane] = murmur.Hash64Tail(out[lane], loaded[lane], rem)
			}
		}
	}
	w.ExecN(simt.IInt, mask, 4*nblk+3)

	for lane := 0; lane < simt.WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = murmur.Hash64Final(out[lane])
		} else {
			out[lane] = 0
		}
	}
	return out
}

func (t Table) refEntryAddr(slots *simt.Vec) simt.Vec {
	var out simt.Vec
	for lane := range out {
		out[lane] = uint64(t.Base) + (slots[lane]%t.Capacity)*EntryBytes
	}
	return out
}

func (t Table) refAbsKeys(keyOffs *simt.Vec) simt.Vec {
	var out simt.Vec
	for lane := range out {
		out[lane] = uint64(t.SeqBase) + keyOffs[lane]
	}
	return out
}

func (t Table) refInsertBatch(w *simt.Warp, mask simt.Mask, own keys, keyOffs, extBases *simt.Vec, extHiQ simt.Mask) error {
	hashes := refHashKmers(w, mask, own, t.K)

	w.Exec(simt.IMatch, mask) // match_any, costed; the groups were never read

	slots := hashes
	pending := mask
	probes := uint64(0)
	cmp := simt.Splat(Empty)
	zero := simt.Splat(0)
	for pending != 0 {
		if probes++; probes > t.Capacity+1 {
			w.ExecN(simt.ICtrl, mask, int(probes-1))
			return ErrTableFull
		}
		entries := t.refEntryAddr(&slots)

		observed := byAtomicCAS(w, pending, &entries, &cmp, keyOffs, 4)

		var claimed, occupied simt.Mask
		for lane := 0; lane < simt.WarpSize; lane++ {
			if !pending.Has(lane) {
				continue
			}
			if observed[lane] == Empty {
				claimed |= simt.LaneMask(lane)
			} else {
				occupied |= simt.LaneMask(lane)
			}
		}

		if claimed != 0 {
			var a simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offCount
			}
			w.StoreGlobal(claimed, &a, 4, &zero)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtHi
			}
			w.StoreGlobal(claimed, &a, 8, &zero)
			for lane := 0; lane < simt.WarpSize; lane++ {
				a[lane] = entries[lane] + offExtLo
			}
			w.StoreGlobal(claimed, &a, 8, &zero)
			w.SyncWarp(pending)
		}

		matched := claimed
		if occupied != 0 {
			var storedAddrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				if occupied.Has(lane) {
					storedAddrs[lane] = uint64(t.SeqBase) + observed[lane]
				}
			}
			matched |= keysEqual(w, occupied, keys{addrs: &storedAddrs}, own, t.K)
		}

		if matched != 0 {
			t.refUpdateCounts(w, matched, &entries, extBases, extHiQ)
		}

		pending &^= matched
		if pending != 0 {
			w.Exec(simt.IInt, pending)
			for lane := 0; lane < simt.WarpSize; lane++ {
				if pending.Has(lane) {
					slots[lane]++
				}
			}
		}
	}
	w.ExecN(simt.ICtrl, mask, int(probes))
	return nil
}

func (t Table) refUpdateCounts(w *simt.Warp, matched simt.Mask, entries, extBases *simt.Vec, extHiQ simt.Mask) {
	one := simt.Splat(1)

	var countAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		countAddrs[lane] = entries[lane] + offCount
	}
	w.AtomicAdd(matched, &countAddrs, &one, 4)

	var hiMask, loMask simt.Mask
	var extAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !matched.Has(lane) {
			continue
		}
		if extBases[lane] == NoExt {
			continue
		}
		base := extBases[lane] & 3
		if extHiQ.Has(lane) {
			hiMask |= simt.LaneMask(lane)
			extAddrs[lane] = entries[lane] + offExtHi + 2*base
		} else {
			loMask |= simt.LaneMask(lane)
			extAddrs[lane] = entries[lane] + offExtLo + 2*base
		}
	}
	if hiMask != 0 {
		w.AtomicAdd(hiMask, &extAddrs, &one, 2)
	}
	if loMask != 0 {
		w.AtomicAdd(loMask, &extAddrs, &one, 2)
	}
}

// TestInsertBatchMatchesParentLoop runs InsertBatch and the probe loop above
// over the batches that take each of its branches and demands the same
// instruction stream, the same table bytes and the same error.
func TestInsertBatchMatchesParentLoop(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(5))
	random := func(n int) []byte {
		r := make([]byte, n)
		for i := range r {
			r[i] = "ACGT"[rng.Intn(4)]
		}
		return r
	}
	// consecutive batches the k-mers of read ri the way buildTableV2 does.
	type batch struct {
		mask              simt.Mask
		keyOffs, extBases simt.Vec
		hiq               simt.Mask
	}
	consecutive := func(offs []uint32, reads [][]byte, ri int) (bs []batch) {
		nk := len(reads[ri]) - k + 1
		for start := 0; start < nk; start += simt.WarpSize {
			var bt batch
			for lane := 0; lane < simt.WarpSize && start+lane < nk; lane++ {
				bt.mask |= simt.LaneMask(lane)
				bt.keyOffs[lane] = uint64(offs[ri]) + uint64(start+lane)
				bt.extBases[lane] = uint64(rng.Intn(4))
				if rng.Intn(6) == 0 {
					bt.extBases[lane] = NoExt
				}
			}
			bt.hiq = simt.Mask(rng.Uint32())
			bs = append(bs, bt)
		}
		return bs
	}

	unit := random(8)
	tandem := bytes.Repeat(unit, 12) // period 8: every 32-window holds each k-mer four times
	a, b := random(150), random(150)
	cases := []struct {
		name    string
		reads   [][]byte
		slots   int
		batches func(offs []uint32, reads [][]byte) []batch
		wantErr error
	}{
		{name: "thread collisions", reads: [][]byte{tandem}, slots: 256,
			batches: func(offs []uint32, reads [][]byte) []batch { return consecutive(offs, reads, 0) }},
		{name: "stored keys of one earlier read", reads: [][]byte{a, a}, slots: 512,
			batches: func(offs []uint32, reads [][]byte) []batch {
				return append(consecutive(offs, reads, 0), consecutive(offs, reads, 1)...)
			}},
		{name: "stored keys of two interleaved reads", reads: [][]byte{a, b, a, b}, slots: 1024,
			batches: func(offs []uint32, reads [][]byte) []batch {
				// Lanes alternate between the two reads, so the table holds
				// keys whose offsets jump; reads 2 and 3 then find them.
				var bs []batch
				ba, bb := consecutive(offs, reads, 0), consecutive(offs, reads, 1)
				for i := range ba {
					mix := ba[i]
					for lane := 1; lane < simt.WarpSize; lane += 2 {
						mix.keyOffs[lane], mix.extBases[lane] = bb[i].keyOffs[lane], bb[i].extBases[lane]
					}
					bs = append(bs, mix)
				}
				bs = append(bs, consecutive(offs, reads, 2)...)
				return append(bs, consecutive(offs, reads, 3)...)
			}},
		{name: "load 0.93, chains wrap at Capacity", reads: [][]byte{random(150), random(150), random(150)}, slots: 3 * 140,
			batches: func(offs []uint32, reads [][]byte) []batch {
				return append(append(consecutive(offs, reads, 0), consecutive(offs, reads, 1)...), consecutive(offs, reads, 2)...)
			}},
		{name: "table full", reads: [][]byte{random(150)}, slots: 100, wantErr: ErrTableFull,
			batches: func(offs []uint32, reads [][]byte) []batch { return consecutive(offs, reads, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			devs := [2]*simt.Device{testDevice(), testDevice()}
			var tabs [2]Table
			var batches []batch
			for i, d := range devs {
				seqBase, offs := buildArena(t, d, tc.reads)
				tabs[i] = newTable(t, d, seqBase, k, tc.slots)
				if i == 0 {
					batches = tc.batches(offs, tc.reads)
				}
			}
			var errs [2]error
			insert := func(i int, ref bool) func(w *simt.Warp) {
				return func(w *simt.Warp) {
					for j := range batches {
						bt := &batches[j]
						if ref {
							addrs := tabs[i].refAbsKeys(&bt.keyOffs)
							errs[i] = tabs[i].refInsertBatch(w, bt.mask, keys{addrs: &addrs}, &bt.keyOffs, &bt.extBases, bt.hiq)
						} else {
							errs[i] = tabs[i].InsertBatch(w, bt.mask, &bt.keyOffs, &bt.extBases, bt.hiq)
						}
						if errs[i] != nil {
							return
						}
					}
				}
			}
			n := int(tabs[0].Base) + int(Bytes(tc.slots))
			sameRun(t, tc.name, devs[0], devs[1], n, 1, insert(0, false), insert(1, true))
			if !errors.Is(errs[0], tc.wantErr) || !errors.Is(errs[1], tc.wantErr) {
				t.Errorf("errors %v (live), %v (reference), want %v", errs[0], errs[1], tc.wantErr)
			}
		})
	}
}

// TestStageOffsPastValidate hashes keys on both sides of the widest k the
// shared staging-offset vectors cover (255) with
// enough local memory to stage every block: Visited, LaneTables and
// LaneVisited take their K unchecked, and wider keys must hash as they did
// when the offsets were built per call.
func TestStageOffsPastValidate(t *testing.T) {
	const arena = 4096
	var addrs simt.Vec
	for lane := range addrs {
		addrs[lane] = uint64(64 + 37*lane)
	}
	for _, k := range []int{255, 257, 300} {
		cfg := simt.KernelConfig{Name: "wide", Warps: 1, Sequential: true, LocalBytesPerLane: 8 * hashBlocks(k)}
		var ks [simt.WarpSize]int
		for lane := range ks {
			ks[lane] = k
		}
		var want, got, gotVar simt.Vec
		kernels := []func(w *simt.Warp){
			func(w *simt.Warp) { want = refHashKmers(w, simt.FullMask, keys{addrs: &addrs}, k) },
			func(w *simt.Warp) { hashKmers(w, simt.FullMask, keys{addrs: &addrs}, k, &got) },
			func(w *simt.Warp) { gotVar = HashKmersVar(w, simt.FullMask, &addrs, &ks) },
		}
		var res [3]simt.KernelResult
		for i, kern := range kernels {
			d, _ := twoDevices(t, arena, int64(k))
			var err error
			if res[i], err = d.Launch(cfg, kern); err != nil {
				t.Fatal(err)
			}
		}
		if got != want || gotVar != want {
			t.Errorf("k=%d: hashes differ from the per-call offsets'", k)
		}
		if res[1] != res[0] || res[2] != res[0] {
			t.Errorf("k=%d: kernel results differ\nref  %+v\nlive %+v\nvar  %+v", k, res[0], res[1], res[2])
		}
	}
}

// TestInsertBatchZeroAllocs is the allocation gate of the probe loop: it
// passes a dozen stack vectors by address into simt, and one of them
// escaping (a method value, an interface) costs an allocation per batch that
// no other test notices.
func TestInsertBatchZeroAllocs(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(9))
	reads := make([][]byte, 4)
	for i := range reads {
		reads[i] = make([]byte, 120)
		for j := range reads[i] {
			reads[i][j] = "ACGT"[rng.Intn(4)]
		}
	}
	d := testDevice()
	defer d.Close()
	seqBase, offs := buildArena(t, d, reads)
	tab := newTable(t, d, seqBase, k, 512)
	type batch struct {
		mask              simt.Mask
		keyOffs, extBases simt.Vec
	}
	var batches []batch
	for ri := range reads {
		for start := 0; start+k <= len(reads[ri]); start += simt.WarpSize {
			var bt batch
			for lane := 0; lane < simt.WarpSize && start+lane+k <= len(reads[ri]); lane++ {
				bt.mask |= simt.LaneMask(lane)
				bt.keyOffs[lane] = uint64(offs[ri]) + uint64(start+lane)
				bt.extBases[lane] = uint64(lane & 3)
			}
			if ri == 3 { // not a run: the own keys go through an address vector
				bt.keyOffs[0], bt.keyOffs[1] = bt.keyOffs[1], bt.keyOffs[0]
			}
			batches = append(batches, bt)
		}
	}
	cfg := simt.KernelConfig{Name: "gate", Warps: 1, Sequential: true, LocalBytesPerLane: 64}
	kern := func(w *simt.Warp) {
		for i := range batches {
			bt := &batches[i]
			if err := tab.InsertBatch(w, bt.mask, &bt.keyOffs, &bt.extBases, 0x55555555); err != nil {
				t.Error(err)
			}
		}
	}
	launch := func() {
		if _, err := d.Launch(cfg, kern); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // claims every slot it will use and warms the launch pools
		launch()
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation gate not meaningful")
	}
	if avg := testing.AllocsPerRun(20, launch); avg > 0 {
		t.Errorf("InsertBatch allocates: %.1f objects per launch of %d batches, want 0", avg, len(batches))
	}
}
