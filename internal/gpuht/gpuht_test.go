package gpuht

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/simt"
)

func testDevice() *simt.Device {
	cfg := simt.V100()
	cfg.GlobalMemBytes = 1 << 26
	return simt.NewDevice(cfg)
}

// buildArena stages reads contiguously on the device with 8 bytes of slack
// (the 8-byte key-block loads may over-read up to 7 bytes) and returns the arena base plus
// each read's starting offset.
func buildArena(t *testing.T, d *simt.Device, reads [][]byte) (simt.Ptr, []uint32) {
	t.Helper()
	total := 8
	offs := make([]uint32, len(reads))
	for i, r := range reads {
		offs[i] = uint32(total - 8)
		total += len(r)
	}
	base, err := d.Malloc(int64(total))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		d.WriteBytes(base+simt.Ptr(offs[i]), r)
	}
	return base, offs
}

// newTable allocates and clears a table of the given capacity.
func newTable(t *testing.T, d *simt.Device, seqBase simt.Ptr, k, slots int) Table {
	t.Helper()
	base, err := d.Malloc(Bytes(slots))
	if err != nil {
		t.Fatal(err)
	}
	tab := Table{Base: base, Capacity: uint64(slots), SeqBase: seqBase, K: k}
	_, err = d.Launch(simt.KernelConfig{Name: "clear", Warps: 2}, func(w *simt.Warp) {
		ClearEntries(w, base, slots, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// refExts builds the reference k-mer table with plain Go maps.
func refExts(reads [][]byte, quals [][]byte, k int) map[string]Ext {
	ref := map[string]Ext{}
	for ri, r := range reads {
		for i := 0; i+k <= len(r); i++ {
			key := string(r[i : i+k])
			e := ref[key]
			e.Count++
			if c, ok := dna.Code(r[min(i+k, len(r)-1)]); ok && i+k < len(r) {
				if quals == nil || dna.QualScore(quals[ri][i+k]) >= dna.QualCutoff {
					e.Hi[c]++
				} else {
					e.Lo[c]++
				}
			}
			ref[key] = e
		}
	}
	return ref
}

// insertAll inserts every k-mer of every read through InsertBatch, packing
// lanes with consecutive k-mers as the v2 kernel does.
func insertAll(t *testing.T, d *simt.Device, tab Table, reads [][]byte, quals [][]byte, offs []uint32) {
	t.Helper()
	type kentry struct {
		off uint32
		ext byte
		hiq bool
	}
	var all []kentry
	for ri, r := range reads {
		for i := 0; i+tab.K <= len(r); i++ {
			e := kentry{off: offs[ri] + uint32(i), ext: NoExt}
			if i+tab.K < len(r) {
				c, _ := dna.Code(r[i+tab.K])
				e.ext = c
				e.hiq = quals == nil || dna.QualScore(quals[ri][i+tab.K]) >= dna.QualCutoff
			}
			all = append(all, e)
		}
	}
	_, err := d.Launch(simt.KernelConfig{Name: "insert", Warps: 1, Sequential: true}, func(w *simt.Warp) {
		for start := 0; start < len(all); start += simt.WarpSize {
			var mask, hiq simt.Mask
			var keyOffs, extBases simt.Vec
			for lane := 0; lane < simt.WarpSize && start+lane < len(all); lane++ {
				e := all[start+lane]
				mask |= simt.LaneMask(lane)
				keyOffs[lane] = uint64(e.off)
				extBases[lane] = uint64(e.ext)
				if e.hiq {
					hiq |= simt.LaneMask(lane)
				}
			}
			if err := tab.InsertBatch(w, mask, &keyOffs, &extBases, hiq); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// windowKeys maps every k-mer of the reads, staged raw at offs, to its
// last offset.
func windowKeys(reads [][]byte, offs []uint32, k int) map[string]uint32 {
	keys := map[string]uint32{}
	for ri, r := range reads {
		for i := 0; i+k <= len(r); i++ {
			keys[string(r[i:i+k])] = offs[ri] + uint32(i)
		}
	}
	return keys
}

// lookupAll fetches each key via LookupLane on a fresh kernel.
func lookupAll(t *testing.T, d *simt.Device, tab Table, arena simt.Ptr, keys map[string]uint32) map[string]Ext {
	t.Helper()
	got := map[string]Ext{}
	_, err := d.Launch(simt.KernelConfig{Name: "lookup", Warps: 1, Sequential: true}, func(w *simt.Warp) {
		for key, off := range keys {
			e, ok := tab.LookupLane(w, 0, uint64(arena)+uint64(off))
			if !ok {
				t.Errorf("key %q not found", key)
				continue
			}
			got[key] = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestHostSlots: power-of-two capacities with load factor ≤ 0.5 over the
// exact k-mer bound, and 0 for empty builds.
func TestHostSlots(t *testing.T) {
	if HostSlots(0) != 0 || HostSlots(-3) != 0 {
		t.Error("HostSlots of empty build should be 0")
	}
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000, 1 << 20} {
		s := HostSlots(n)
		if s&(s-1) != 0 {
			t.Errorf("HostSlots(%d) = %d not a power of two", n, s)
		}
		if s < 2*n {
			t.Errorf("HostSlots(%d) = %d gives load factor > 0.5", n, s)
		}
		if s >= 4*n {
			t.Errorf("HostSlots(%d) = %d over-allocates", n, s)
		}
	}
}

func TestLoadFactorBound(t *testing.T) {
	// §3.2: worst case (300-21+1)/300 ≈ 0.93.
	lf := LoadFactor(300, 21)
	if math.Abs(lf-0.9333) > 0.001 {
		t.Errorf("LoadFactor(300,21) = %.4f, want ≈0.9333", lf)
	}
	for _, k := range []int{21, 33, 55, 77, 99} {
		for _, l := range []int{100, 150, 300} {
			if k > l {
				continue
			}
			lf := LoadFactor(l, k)
			if lf > 0.9334 {
				t.Errorf("LoadFactor(%d,%d) = %.4f exceeds the paper bound", l, k, lf)
			}
			if MaxKmers(l, k, 7) > SlotsPerExtension(l, 7) {
				t.Errorf("sizing violates capacity for l=%d k=%d", l, k)
			}
		}
	}
	if LoadFactor(10, 20) != 0 || LoadFactor(0, 1) != 0 {
		t.Error("degenerate load factors should be 0")
	}
}

func TestInsertLookupSingleRead(t *testing.T) {
	d := testDevice()
	reads := [][]byte{[]byte("ACGTACGGTACC")}
	k := 4
	arena, offs := buildArena(t, d, reads)
	tab := newTable(t, d, arena, k, SlotsPerExtension(len(reads[0]), 1))
	insertAll(t, d, tab, reads, nil, offs)

	ref := refExts(reads, nil, k)
	keys := windowKeys(reads, offs, k)
	got := lookupAll(t, d, tab, arena, keys)
	for key, want := range ref {
		if got[key] != want {
			t.Errorf("key %s: got %+v want %+v", key, got[key], want)
		}
	}
}

func TestInsertThreadCollision(t *testing.T) {
	// All 32 lanes insert the identical k-mer: one claims, 31 match.
	d := testDevice()
	reads := [][]byte{[]byte("AAAATTTT")}
	k := 8
	arena, offs := buildArena(t, d, reads)
	tab := newTable(t, d, arena, k, 64)
	_, err := d.Launch(simt.KernelConfig{Name: "collide", Warps: 1}, func(w *simt.Warp) {
		keyOffs := simt.Splat(uint64(offs[0]))
		extBases := simt.Splat(uint64(NoExt))
		if err := tab.InsertBatch(w, simt.FullMask, &keyOffs, &extBases, 0); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got Ext
	_, err = d.Launch(simt.KernelConfig{Name: "lk", Warps: 1}, func(w *simt.Warp) {
		got, _ = tab.LookupLane(w, 0, uint64(arena)+uint64(offs[0]))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 32 {
		t.Errorf("count = %d, want 32", got.Count)
	}
}

func TestInsertHashCollisionProbing(t *testing.T) {
	// A tiny table forces linear probing among distinct k-mers.
	d := testDevice()
	reads := [][]byte{[]byte("ACGTGCA")} // 4 distinct 4-mers
	k := 4
	arena, offs := buildArena(t, d, reads)
	tab := newTable(t, d, arena, k, 4) // exactly as many slots as k-mers
	insertAll(t, d, tab, reads, nil, offs)
	keys := windowKeys(reads, offs, k)
	got := lookupAll(t, d, tab, arena, keys)
	for key := range keys {
		if got[key].Count == 0 {
			t.Errorf("key %s lost under full-table probing", key)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	d := testDevice()
	reads := [][]byte{[]byte("ACGTACGT"), []byte("GGGGGGGG")}
	k := 8
	arena, offs := buildArena(t, d, reads)
	tab := newTable(t, d, arena, k, 32)
	// Insert only the first read's k-mer.
	insertAll(t, d, tab, reads[:1], nil, offs[:1])
	_, err := d.Launch(simt.KernelConfig{Name: "miss", Warps: 1}, func(w *simt.Warp) {
		if _, ok := tab.LookupLane(w, 0, uint64(arena)+uint64(offs[1])); ok {
			t.Error("found a k-mer that was never inserted")
		}
		if _, ok := tab.LookupLane(w, 0, uint64(arena)+uint64(offs[0])); !ok {
			t.Error("lost the k-mer that was inserted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInsertRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		d := testDevice()
		k := 5 + rng.Intn(17)
		nReads := 1 + rng.Intn(6)
		reads := make([][]byte, nReads)
		quals := make([][]byte, nReads)
		maxLen := 0
		for i := range reads {
			l := k + rng.Intn(80)
			reads[i] = make([]byte, l)
			quals[i] = make([]byte, l)
			for j := range reads[i] {
				reads[i][j] = dna.Alphabet[rng.Intn(4)]
				quals[i][j] = dna.QualChar(rng.Intn(dna.MaxQual))
			}
			if l > maxLen {
				maxLen = l
			}
		}
		arena, offs := buildArena(t, d, reads)
		tab := newTable(t, d, arena, k, SlotsPerExtension(maxLen, nReads))
		insertAll(t, d, tab, reads, quals, offs)

		ref := refExts(reads, quals, k)
		keys := windowKeys(reads, offs, k)
		got := lookupAll(t, d, tab, arena, keys)
		for key, want := range ref {
			if got[key] != want {
				t.Fatalf("trial %d k=%d key %s: got %+v want %+v", trial, k, key, got[key], want)
			}
		}
	}
}

func TestVisitedCycleDetection(t *testing.T) {
	d := testDevice()
	// Walk buffer containing a repeating pattern: ACGACGACG...
	buf := []byte("ACGACGACGACG")
	base, err := d.Malloc(int64(len(buf) + 8))
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBytes(base, buf)
	k := 3
	slots := 32
	vbase, _ := d.Malloc(VisitedBytes(slots))
	vis := Visited{Base: vbase, Capacity: uint64(slots), BufBase: base, K: k}
	_, err = d.Launch(simt.KernelConfig{Name: "visited", Warps: 1}, func(w *simt.Warp) {
		ClearVisitedWarp(w, vbase, slots)
		// First three k-mers are distinct: ACG, CGA, GAC.
		for i := 0; i < 3; i++ {
			seen, err := vis.InsertLane(w, 0, uint32(i))
			if err != nil {
				t.Error(err)
			}
			if seen {
				t.Errorf("offset %d flagged as revisit on first visit", i)
			}
		}
		// Offset 3 is ACG again: cycle.
		seen, err := vis.InsertLane(w, 0, 3)
		if err != nil {
			t.Error(err)
		}
		if !seen {
			t.Error("cycle not detected")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClearEntriesResets: ClearEntries run by any number of warps resets
// exactly its entries to an Empty key and zero counters, wherever the
// arena starts, and leaves the bytes after them as they were.
func TestClearEntriesResets(t *testing.T) {
	for _, entries := range []int{0, 1, 31, 32, 33, 100} {
		for _, warps := range []int{1, 3} {
			for _, base := range []simt.Ptr{64, 72} { // 72 moves the stores' sector phase
				d := testDevice()
				end := base + simt.Ptr(entries*EntryBytes)
				if _, err := d.Malloc(int64(end) + 64); err != nil {
					t.Fatal(err)
				}
				d.WriteBytes(0, bytes.Repeat([]byte{0xab}, int(end)+64))
				if _, err := d.Launch(simt.KernelConfig{Name: "clear", Warps: warps}, func(w *simt.Warp) {
					ClearEntries(w, base, entries, warps)
				}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < entries; i++ {
					e := base + simt.Ptr(i*EntryBytes)
					if d.ReadU32(e+offKeyOff) != Empty || d.ReadU32(e+offCount) != 0 ||
						d.ReadU64(e+offExtHi) != 0 || d.ReadU64(e+offExtLo) != 0 {
						t.Fatalf("%d entries, %d warps, base %d: entry %d not reset", entries, warps, base, i)
					}
				}
				if !bytes.Equal(d.ReadBytes(end, 64), bytes.Repeat([]byte{0xab}, 64)) ||
					!bytes.Equal(d.ReadBytes(0, int(base)), bytes.Repeat([]byte{0xab}, int(base))) {
					t.Errorf("%d entries, %d warps, base %d: a byte outside the entries changed", entries, warps, base)
				}
			}
		}
	}
}

func TestV2CoalescesBetterThanV1(t *testing.T) {
	// The crux of Figs 8-10: warp-cooperative construction issues fewer
	// global-memory instructions and transactions per inserted k-mer.
	d := testDevice()
	rng := rand.New(rand.NewSource(77))
	read := randomReads(rng, 1, 160, 1)[0]
	reads := [][]byte{read}
	k := 21
	arena, offs := buildArena(t, d, reads)

	tabA := newTable(t, d, arena, k, SlotsPerExtension(len(read), 1))
	var kentries []uint32
	for i := 0; i+k <= len(read); i++ {
		kentries = append(kentries, offs[0]+uint32(i))
	}
	resV2, err := d.Launch(simt.KernelConfig{Name: "v2", Warps: 1}, func(w *simt.Warp) {
		for start := 0; start < len(kentries); start += simt.WarpSize {
			var mask simt.Mask
			var keyOffs simt.Vec
			extBases := simt.Splat(uint64(NoExt))
			for lane := 0; lane < simt.WarpSize && start+lane < len(kentries); lane++ {
				mask |= simt.LaneMask(lane)
				keyOffs[lane] = uint64(kentries[start+lane])
			}
			if err := tabA.InsertBatch(w, mask, &keyOffs, &extBases, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	tabB := newTable(t, d, arena, k, SlotsPerExtension(len(read), 1))
	resV1, err := d.Launch(simt.KernelConfig{Name: "v1", Warps: 1}, func(w *simt.Warp) {
		for _, off := range kentries {
			if err := tabB.InsertLane(w, 0, off, NoExt, false); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	gInstV2, _ := resV2.MemWarpInstrs()
	gInstV1, _ := resV1.MemWarpInstrs()
	if gInstV2 >= gInstV1 {
		t.Errorf("v2 global-memory instructions %d not below v1 %d", gInstV2, gInstV1)
	}
	if resV2.NonPredicatedRatio() <= resV1.NonPredicatedRatio() {
		t.Errorf("v2 predication %f not better than v1 %f",
			resV2.NonPredicatedRatio(), resV1.NonPredicatedRatio())
	}
}

func TestInsertLaneMatchesBatch(t *testing.T) {
	// Inserting a read's k-mers one lane at a time (v1's construction) and
	// a warp at a time (v2's) must build identical tables.
	d := testDevice()
	rng := rand.New(rand.NewSource(21))
	read := randomReads(rng, 1, 60, 1)[0]
	reads := [][]byte{read}
	k := 6
	arena, offs := buildArena(t, d, reads)

	tabA := newTable(t, d, arena, k, SlotsPerExtension(len(read), 1))
	insertAll(t, d, tabA, reads, nil, offs)

	tabB := newTable(t, d, arena, k, SlotsPerExtension(len(read), 1))
	_, err := d.Launch(simt.KernelConfig{Name: "v1", Warps: 1}, func(w *simt.Warp) {
		for i := 0; i+k <= len(read); i++ {
			ext := byte(NoExt)
			hiq := false
			if i+k < len(read) {
				c, _ := dna.Code(read[i+k])
				ext, hiq = c, true
			}
			if err := tabB.InsertLane(w, 0, offs[0]+uint32(i), ext, hiq); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := windowKeys(reads, offs, k)
	gotA := lookupAll(t, d, tabA, arena, keys)
	gotB := lookupAll(t, d, tabB, arena, keys)
	for key := range keys {
		if gotA[key] != gotB[key] {
			t.Errorf("key %s: batch %+v vs lane %+v", key, gotA[key], gotB[key])
		}
	}
}

// InsertLane inserts a single k-mer from one lane, all others predicated
// off: what the v1 kernel's one-thread-per-table construction amounts to.
func (t Table) InsertLane(w *simt.Warp, lane int, keyOff uint32, extBase byte, extHiQ bool) error {
	m := simt.LaneMask(lane)
	var keyOffs, extBases simt.Vec
	keyOffs[lane] = uint64(keyOff)
	extBases[lane] = uint64(extBase)
	var hiq simt.Mask
	if extHiQ {
		hiq = m
	}
	return t.InsertBatch(w, m, &keyOffs, &extBases, hiq)
}
