package gpuht

// The raw key loads are issued through simt's shape-declared ops
// (DESIGN.md §12, "Shape-declared ops"). The packed keys have two load forms
// of different shapes (a run's segment load, a gather's per-lane words), so
// what the tests below pin is their meaning: every form loads the same
// words, hashes the same, and InsertBatch builds the table a lane-at-a-time
// loop and the byte-keyed loop it replaced build.

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/simt"
)

// buildArenas stages reads the way the local-assembly driver does: the
// packable ones 2-bit packed (a word of slack after them), the others raw
// (8 bytes of slack), and returns both bases and each read's key offset.
func buildArenas(t *testing.T, d *simt.Device, reads [][]byte) (seqBase, packBase simt.Ptr, offs []uint32) {
	t.Helper()
	var pack, raw []byte
	bases := 0
	for _, r := range reads {
		if dna.Packable(r) {
			pack = append(pack, make([]byte, (bases+len(r)+3)/4-len(pack))...)
			dna.Pack2Bit(pack, bases, r)
			offs = append(offs, Packed|uint32(bases))
			bases += len(r)
		} else {
			offs = append(offs, uint32(len(raw)))
			raw = append(raw, r...)
		}
	}
	pack = append(pack, make([]byte, 16)...)
	raw = append(raw, make([]byte, 8)...)
	seqBase, err := d.Malloc(int64(len(raw)))
	if err == nil {
		packBase, err = d.Malloc(int64(len(pack)))
	}
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBytes(seqBase, raw)
	d.WriteBytes(packBase, pack)
	return seqBase, packBase, offs
}

// randomReads returns n reads over ACGT, every third one made impure.
func randomReads(rng *rand.Rand, n, minLen, spread int) [][]byte {
	reads := make([][]byte, n)
	for i := range reads {
		reads[i] = make([]byte, minLen+rng.Intn(spread))
		for j := range reads[i] {
			reads[i][j] = "ACGT"[rng.Intn(4)]
		}
		if i%3 == 2 {
			reads[i][rng.Intn(len(reads[i]))] = "NacgtRY"[rng.Intn(7)]
		}
	}
	return reads
}

// insBatch is one InsertBatch call's lanes, key offsets, extensions and
// high-quality lanes.
type insBatch struct {
	mask, hiq         simt.Mask
	keyOffs, extBases simt.Vec
}

// readBatches cuts the k-mers of read r, staged at key offset off, into
// warp-wide batches of consecutive windows the way buildTableV2 does; a
// lane's extension is the base after its window (NoExt past the end or on a
// byte that is not a base).
func readBatches(r []byte, off uint32, k int) (bs []insBatch) {
	for start := 0; start+k <= len(r); start += simt.WarpSize {
		var bt insBatch
		for lane := 0; lane < simt.WarpSize && start+lane+k <= len(r); lane++ {
			bt.mask |= simt.LaneMask(lane)
			bt.keyOffs[lane] = uint64(off) + uint64(start+lane)
			bt.extBases[lane] = NoExt
			if i := start + lane + k; i < len(r) {
				if c, ok := dna.Code(r[i]); ok {
					bt.extBases[lane] = uint64(c)
				}
			}
		}
		bs = append(bs, bt)
	}
	return bs
}

// TestKeyFormsAgree loads the same windows every way a key is loaded: a
// packed run (segment and shuffles), packed gathers, and raw bytes packed
// in registers. Each pure window gets the same words and hash in every
// form, a packed stored key compares equal to its own window loaded run
// or raw and unequal to the next one, and the lower-case copy is impure.
func TestKeyFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reads := randomReads(rng, 1, 300, 1) // one read: pure
	reads = append(reads, append([]byte(nil), reads[0]...), bytes.ToLower(reads[0]))
	masks := []simt.Mask{simt.FullMask, 0x0000ffff, 0x80010001, simt.LaneMask(0), simt.LaneMask(17), 0xfffffffe}
	for i := 0; i < 10; i++ {
		masks = append(masks, simt.Mask(rng.Uint32())|1)
	}
	cfg := simt.KernelConfig{Name: "keys", Warps: 1, Sequential: true, LocalBytesPerLane: 64}
	for _, k := range []int{5, 21, 27, 29, 33, 61, 77, MaxK} {
		for _, mask := range masks {
			d := testDevice()
			seqBase, packBase, offs := buildArenas(t, d, reads[1:]) // a packed copy, a lower-case raw one
			seqBase0, _ := buildArena(t, d, reads[:1])              // the upper-case bytes, raw
			kk := lanesK{&laneK[k], k}
			start := uint64(rng.Intn(300 - k - 31))
			var packed, raw, rawAddrs, other simt.Vec
			for lane := range packed {
				packed[lane] = uint64(offs[0]) + start + uint64(lane)
				raw[lane] = start + uint64(lane)
				rawAddrs[lane] = uint64(seqBase0) + raw[lane]
				other[lane] = packed[lane] + 1
			}
			var got [3]Keys
			var hashes [3]simt.Vec
			var eqs [3]simt.Mask
			var lower Keys
			_, err := d.Launch(cfg, func(w *simt.Warp) {
				loadRun(w, mask, packBase, &packed, kk, &got[0])
				loadPacked(w, mask, packBase, &packed, kk, &got[1], nil)
				loadRaw(w, mask, &rawAddrs, kk, &got[2])
				for i := range got {
					hashKeys(w, mask, &got[i], kk, &hashes[i])
				}
				eqs[0] = loadPacked(w, mask, packBase, &packed, kk, nil, &got[0])
				eqs[1] = loadPacked(w, mask, packBase, &packed, kk, nil, &got[2])
				eqs[2] = loadPacked(w, mask, packBase, &other, kk, nil, &got[2])
				loadKeys(w, mask, &raw, seqBase, packBase, kk, &lower, true)
			})
			if err != nil {
				t.Fatal(err)
			}
			for m := uint32(mask); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				for i := 1; i < len(got); i++ {
					for j := 0; j < keyWords(k); j++ {
						if got[i].Words[j][lane] != got[0].Words[j][lane] || hashes[i][lane] != hashes[0][lane] {
							t.Fatalf("k=%d mask=%#x lane %d: form %d loads %#x, hash %#x; the run %#x, %#x",
								k, mask, lane, i, got[i].Words[j][lane], hashes[i][lane], got[0].Words[j][lane], hashes[0][lane])
						}
					}
				}
			}
			if got[2].Impure&mask != 0 || lower.Impure&mask != mask {
				t.Errorf("k=%d: impure lanes %#x (upper case), %#x (lower case)", k, got[2].Impure&mask, lower.Impure&mask)
			}
			if eqs[0] != mask || eqs[1] != mask || eqs[2] != 0 {
				t.Errorf("k=%d mask=%#x: stored-key compares %#x %#x %#x", k, mask, eqs[0], eqs[1], eqs[2])
			}
			d.Close()
		}
	}
}

// TestInsertBatchRunMatchesGeneral inserts batches of consecutive k-mers
// (full and sparse masks over one run) into two tables: once through
// InsertBatch, whose packed runs share one segment load, and once with
// every key gathered per lane before InsertKeys. The two must leave the
// same table bytes: the run form changes only how the keys are loaded.
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
	reads[4] = bytes.ToLower(reads[4]) // one raw read: its runs load alike in both forms
	devs := [2]*simt.Device{testDevice(), testDevice()}
	var tabs [2]Table
	var batches []insBatch
	for i, d := range devs {
		seqBase, packBase, offs := buildArenas(t, d, reads)
		tabs[i] = newTable(t, d, seqBase, k, 2048)
		tabs[i].PackBase = packBase
		if i > 0 {
			continue
		}
		for ri, r := range reads {
			for _, bt := range readBatches(r, offs[ri], k) {
				bt.hiq = simt.Mask(rng.Uint32())
				if rng.Intn(3) == 0 { // a sparse mask over the same run
					if m := bt.mask & simt.Mask(rng.Uint32()); m != 0 {
						bt.mask = m
					}
				}
				if !isRun(bt.mask, &bt.keyOffs) {
					t.Fatalf("read %d offset %d: consecutive k-mers not seen as a run", ri, bt.keyOffs[0])
				}
				batches = append(batches, bt)
			}
		}
	}
	cfg := simt.KernelConfig{Name: "InsertBatch", Warps: 1, Sequential: true, LocalBytesPerLane: 64}
	for i, d := range devs {
		tab := tabs[i]
		_, err := d.Launch(cfg, func(w *simt.Warp) {
			for j := range batches {
				bt := &batches[j]
				var err error
				if i == 0 {
					err = tab.InsertBatch(w, bt.mask, &bt.keyOffs, &bt.extBases, bt.hiq)
				} else {
					var own Keys
					loadKeys(w, bt.mask, &bt.keyOffs, tab.SeqBase, tab.PackBase, lanesK{&laneK[k], k}, &own, false)
					err = tab.InsertKeys(w, bt.mask, &own, &bt.keyOffs, &bt.extBases, bt.hiq)
				}
				if err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	n := int(tabs[0].Base) + int(Bytes(2048))
	if !bytes.Equal(devs[0].ReadBytes(0, n), devs[1].ReadBytes(0, n)) {
		t.Error("InsertBatch: run and general forms leave different device memory")
	}

	// Offsets that jump (a read boundary inside the batch) are not a run.
	jump := batches[0].keyOffs
	jump[5] += 40
	if isRun(simt.FullMask, &jump) {
		t.Error("jumping offsets taken for a run")
	}
}

// TestInsertBatchMatchesParentLoop checks that InsertBatch builds the table
// the byte-keyed probe loop it replaced built: the map reference's
// extension for every k-mer. It builds tables from the batches that take
// each branch of the probe round three ways: warp-at-a-time through
// InsertBatch and one lane at a time, over reads staged packed and raw,
// and warp-at-a-time over every read staged raw, as that loop staged them.
// All three must agree, and fail alike when full.
func TestInsertBatchMatchesParentLoop(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(5))
	random := func(n int) []byte { return randomReads(rng, 1, n, 1)[0] }
	all := func(offs []uint32, reads [][]byte) (bs []insBatch) {
		for ri, r := range reads {
			bs = append(bs, readBatches(r, offs[ri], k)...)
		}
		return bs
	}
	unit := random(8)
	tandem := bytes.Repeat(unit, 12) // period 8: every 32-window holds each k-mer four times
	a, b := random(150), random(150)
	a[70] = 'A'
	impure := append([]byte(nil), a...)
	impure[70] = 'N' // its windows clear of the N equal a's; packed lossily, those over it would too
	cases := []struct {
		name    string
		reads   [][]byte
		slots   int
		batches func(offs []uint32, reads [][]byte) []insBatch
		wantErr error
	}{
		{name: "thread collisions", reads: [][]byte{tandem}, slots: 256, batches: all},
		{name: "stored keys of one earlier read", reads: [][]byte{bytes.ToLower(a), a, a}, slots: 1024, batches: all},
		{name: "a raw read's pure windows", reads: [][]byte{a, impure, impure}, slots: 160, batches: all},
		{name: "stored keys of two interleaved reads", reads: [][]byte{a, b, a, b}, slots: 1024,
			batches: func(offs []uint32, reads [][]byte) []insBatch {
				// Lanes alternate between the two reads, so the table holds
				// keys whose offsets jump; reads 2 and 3 then find them.
				var bs []insBatch
				ba, bb := readBatches(reads[0], offs[0], k), readBatches(reads[1], offs[1], k)
				for i := range ba {
					mix := ba[i]
					for lane := 1; lane < simt.WarpSize; lane += 2 {
						mix.keyOffs[lane], mix.extBases[lane] = bb[i].keyOffs[lane], bb[i].extBases[lane]
					}
					bs = append(bs, mix)
				}
				return append(bs, all(offs, reads[2:])...)
			}},
		{name: "load 0.93, chains wrap at Capacity", reads: [][]byte{random(150), random(150), random(150)}, slots: 3 * 140, batches: all},
		{name: "table full", reads: [][]byte{random(150)}, slots: 100, wantErr: ErrTableFull, batches: all},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := testDevice()
			defer d.Close()
			seqBase, packBase, offs := buildArenas(t, d, tc.reads)
			arena, keyAt := buildArena(t, d, tc.reads) // every read raw
			var tabs [3]Table
			var errs [3]error
			for i := range tabs {
				tabs[i] = newTable(t, d, seqBase, k, tc.slots)
				tabs[i].PackBase = packBase
				batches := tc.batches(offs, tc.reads)
				if i == 2 {
					tabs[i].SeqBase, tabs[i].PackBase = arena, 0
					batches = tc.batches(keyAt, tc.reads)
				}
				_, err := d.Launch(simt.KernelConfig{Name: "insert", Warps: 1, Sequential: true, LocalBytesPerLane: 64}, func(w *simt.Warp) {
					for _, bt := range batches {
						for m := uint32(bt.mask); m != 0 && errs[i] == nil; m &= m - 1 {
							if i != 1 {
								errs[i] = tabs[i].InsertBatch(w, bt.mask, &bt.keyOffs, &bt.extBases, 0x55555555)
								break
							}
							lane := bits.TrailingZeros32(m)
							errs[i] = tabs[i].InsertLane(w, lane, uint32(bt.keyOffs[lane]), byte(bt.extBases[lane]), 0x55555555&(1<<lane) != 0)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i, err := range errs {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("table %d: error %v, want %v", i, err, tc.wantErr)
				}
			}
			if tc.wantErr != nil {
				return
			}
			quals := make([][]byte, len(tc.reads))
			for ri, r := range tc.reads {
				quals[ri] = make([]byte, len(r))
				for i := range r {
					quals[ri][i] = dna.QualChar(dna.QualCutoff - 1)
					if i >= k && 0x55555555&(1<<((i-k)%simt.WarpSize)) != 0 {
						quals[ri][i] = dna.QualChar(dna.QualCutoff)
					}
				}
			}
			// The interleaved batches skip some k-mers, so only the two
			// tables are compared there; elsewhere both equal the map.
			want := refExts(tc.reads, quals, k)
			keys := windowKeys(tc.reads, keyAt, k)
			batch, lane, raw := lookupAll(t, d, tabs[0], arena, keys), lookupAll(t, d, tabs[1], arena, keys), lookupAll(t, d, tabs[2], arena, keys)
			for key := range keys {
				if batch[key] != lane[key] || batch[key] != raw[key] || (batch[key] != want[key] && !strings.Contains(tc.name, "interleaved")) {
					t.Errorf("key %s: batch %+v, per lane %+v, raw %+v, map %+v", key, batch[key], lane[key], raw[key], want[key])
				}
			}
		})
	}
}

// TestInsertBatchZeroAllocs is the allocation gate of the probe loop: it
// passes a dozen stack vectors by address into simt, and one of them
// escaping (a method value, an interface) costs an allocation per batch that
// no other test notices.
func TestInsertBatchZeroAllocs(t *testing.T) {
	const k = 21
	reads := randomReads(rand.New(rand.NewSource(9)), 4, 120, 1) // read 2 staged raw, the others packed
	d := testDevice()
	defer d.Close()
	seqBase, packBase, offs := buildArenas(t, d, reads)
	tab := newTable(t, d, seqBase, k, 512)
	tab.PackBase = packBase
	var batches []insBatch
	for ri, r := range reads {
		for _, bt := range readBatches(r, offs[ri], k) {
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
