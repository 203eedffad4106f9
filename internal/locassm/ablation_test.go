package locassm

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// Ablation benchmarks for the design choices DESIGN.md §6 calls out. Each
// reports the quantity the paper's design argument predicts.

// ablationWorkload mixes a few heavy contigs among thousands of light ones
// — the §3.1 situation where an unbinned launch makes every resident round
// as slow as its slowest warp. The light population exceeds the V100's
// resident-warp capacity (5120) so the launch takes several rounds.
func ablationWorkload(b *testing.B) []*CtgWithReads {
	b.Helper()
	rng := rand.New(rand.NewSource(777))
	randSeq := func(n int) string {
		b := make([]byte, n)
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	var ctgs []*CtgWithReads
	for i := 0; i < 11000; i++ {
		if i%500 == 0 {
			// Heavy: deep coverage extending far past the end — a long
			// serial walk with many probes (the §3.1 stragglers).
			genome := []byte(randSeq(700))
			c := &CtgWithReads{ID: int64(i), Seq: append([]byte(nil), genome[200:440]...)}
			for pos := 380; pos+60 <= 700; pos += 2 {
				c.RightReads = append(c.RightReads, readFromString(string(genome[pos:pos+60])))
			}
			ctgs = append(ctgs, c)
			continue
		}
		// Light: two short junk reads that dead-end immediately (tiny
		// tables, negligible traffic — pure occupancy).
		c := &CtgWithReads{ID: int64(i), Seq: []byte(randSeq(60))}
		c.RightReads = append(c.RightReads,
			readFromString(randSeq(24)), readFromString(randSeq(24)))
		ctgs = append(ctgs, c)
	}
	return ctgs
}

// BenchmarkAblationBinning compares the §3.1 binned schedule (separate
// kernels for bin 2 and bin 3) against offloading everything in one
// launch. The mixed launch's latency term is set by its slowest warp while
// light warps idle — binning isolates that.
func BenchmarkAblationBinning(b *testing.B) {
	ctgs := ablationWorkload(b)
	cfg := GPUConfig{Config: testConfigB(), WarpPerTable: true}

	for i := 0; i < b.N; i++ {
		// Mixed: one run over everything.
		dev := simt.NewDevice(simt.V100())
		drv, err := NewDriver(dev, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mixed, err := drv.Run(ctgs)
		if err != nil {
			b.Fatal(err)
		}

		// Binned: bin 2 and bin 3 in separate launches.
		bins := MakeBins(ctgs, 0)
		dev2 := simt.NewDevice(simt.V100())
		drv2, err := NewDriver(dev2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := drv2.Run(bins.Small)
		if err != nil {
			b.Fatal(err)
		}
		r3, err := drv2.Run(bins.Large)
		if err != nil {
			b.Fatal(err)
		}
		binned := r2.TotalTime() + r3.TotalTime()

		b.ReportMetric(float64(mixed.TotalTime()/1e3), "mixed-us")
		b.ReportMetric(float64(binned/1e3), "binned-us")
	}
}

// BenchmarkAblationPointerKeys quantifies Fig 6: device bytes for the
// batch's hash tables with pointer-compressed keys (4-byte offsets inside
// 32-byte entries) versus storing the k-mer bytes in every entry.
func BenchmarkAblationPointerKeys(b *testing.B) {
	ctgs := ablationWorkload(b)
	cfg := testConfigB()
	items := buildSideItems(ctgs, &cfg, false)
	for i := 0; i < b.N; i++ {
		var ptrBytes, fullBytes int64
		for _, it := range items {
			p := planItem(it, &cfg)
			ptrBytes += gpuht.Bytes(p.tableSlots)
			// Full-key entries: replace the 4-byte offset with k bytes
			// (padded to 8): entry grows by pad8(k)−4... conservatively
			// pad the whole entry to alignment.
			fullEntry := int64(gpuht.EntryBytes - 4 + (cfg.MaxMer+7)/8*8)
			fullBytes += int64(p.tableSlots) * fullEntry
		}
		b.ReportMetric(float64(ptrBytes), "ptr-bytes")
		b.ReportMetric(float64(fullBytes), "full-bytes")
		b.ReportMetric(float64(fullBytes)/float64(ptrBytes), "saving-x")
	}
}

// BenchmarkAblationLoadFactor compares the §3.2 sizing policy (l·r slots,
// load factor ≤ 0.93) against exact sizing ((l−k+1)·r slots, load factor
// up to 1.0) by measuring probe work during construction.
func BenchmarkAblationLoadFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	read := make([]byte, 150)
	for i := range read {
		read[i] = "ACGT"[rng.Intn(4)]
	}
	k := 21
	nk := len(read) - k + 1

	run := func(slots int) uint64 {
		cfgDev := simt.V100()
		cfgDev.GlobalMemBytes = 1 << 24
		dev := simt.NewDevice(cfgDev)
		arena, _ := dev.Malloc(int64(len(read) + 8))
		dev.WriteBytes(arena, read)
		tabBase, _ := dev.Malloc(gpuht.Bytes(slots))
		tab := gpuht.Table{Base: tabBase, Capacity: uint64(slots), SeqBase: arena, K: k}
		res, err := dev.Launch(simt.KernelConfig{Name: "lf", Warps: 1}, func(w *simt.Warp) {
			gpuht.ClearEntriesWarp(w, tabBase, slots)
			for start := 0; start < nk; start += simt.WarpSize {
				var mask simt.Mask
				var keyOffs simt.Vec
				extBases := simt.Splat(uint64(gpuht.NoExt))
				for lane := 0; lane < simt.WarpSize && start+lane < nk; lane++ {
					mask |= simt.LaneMask(lane)
					keyOffs[lane] = uint64(start + lane)
				}
				tab.InsertBatch(w, mask, &keyOffs, &extBases, 0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.TotalWarpInstrs()
	}

	for i := 0; i < b.N; i++ {
		paper := run(gpuht.SlotsPerExtension(len(read), 1)) // l·r
		exact := run(gpuht.MaxKmers(len(read), k, 1))       // (l−k+1)·r
		b.ReportMetric(float64(paper), "lr-sized-instrs")
		b.ReportMetric(float64(exact), "exact-sized-instrs")
	}
}

// testConfigB mirrors testConfig for benchmarks.
func testConfigB() Config {
	return Config{
		MinMer: 11, MaxMer: 19, StartMer: 15, MerStep: 4,
		MaxWalkLen: 300, MaxIters: 10,
		QualCutoff: 20, MinViableScore: 2, MaxReadLen: 150,
	}
}
