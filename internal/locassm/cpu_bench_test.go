package locassm

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks comparing the flat-table engine against the map
// reference on identical inputs: table build (ns/insert), walk
// (ns/lookup), and the full per-contig extend. EXPERIMENTS.md records the
// before/after numbers from these.

// benchWorkload is a well-covered contig: ~35 reads per side, 90 bp each.
func benchWorkload() (*CtgWithReads, Config) {
	rng := rand.New(rand.NewSource(42))
	c, _ := makeCovered(rng, 1, 1200, 300, 600, 90, 9)
	return c, testConfig()
}

func BenchmarkFlatTableBuild(b *testing.B) {
	c, cfg := benchWorkload()
	ws := new(cpuWorkspace)
	var wc WorkCounts
	ws.buildTable(c.RightReads, cfg.StartMer, cfg.QualCutoff, &wc)
	inserts := wc.KmersInserted
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.buildTable(c.RightReads, cfg.StartMer, cfg.QualCutoff, &wc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*inserts), "ns/insert")
}

func BenchmarkMapTableBuild(b *testing.B) {
	c, cfg := benchWorkload()
	var wc WorkCounts
	buildTableMapRef(c.RightReads, cfg.StartMer, cfg.QualCutoff, &wc)
	inserts := wc.KmersInserted
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildTableMapRef(c.RightReads, cfg.StartMer, cfg.QualCutoff, &wc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*inserts), "ns/insert")
}

func BenchmarkFlatWalk(b *testing.B) {
	c, cfg := benchWorkload()
	ws := new(cpuWorkspace)
	var wc WorkCounts
	mer := cfg.StartMer
	tailLen := cfg.MaxMer
	ws.buildTable(c.RightReads, mer, cfg.QualCutoff, &wc)
	tail := append([]byte(nil), c.Seq[len(c.Seq)-tailLen:]...)
	var lookups int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.buf = grownTo(ws.buf, tailLen+cfg.MaxWalkLen)[:0]
		ws.buf = append(ws.buf, tail...)
		wc.Lookups = 0
		ws.walk(tailLen, mer, c.RightReads, &cfg, &wc)
		lookups = wc.Lookups
	}
	if lookups > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*lookups), "ns/lookup")
	}
}

func BenchmarkMapWalk(b *testing.B) {
	c, cfg := benchWorkload()
	var wc WorkCounts
	mer := cfg.StartMer
	tailLen := cfg.MaxMer
	table := buildTableMapRef(c.RightReads, mer, cfg.QualCutoff, &wc)
	tail := append([]byte(nil), c.Seq[len(c.Seq)-tailLen:]...)
	var lookups int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]byte(nil), tail...)
		wc.Lookups = 0
		walkMapRef(&buf, tailLen, table, mer, &cfg, &wc)
		lookups = wc.Lookups
	}
	if lookups > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*lookups), "ns/lookup")
	}
}

func BenchmarkExtendContigFlat(b *testing.B) {
	c, cfg := benchWorkload()
	ws := new(cpuWorkspace)
	var wc WorkCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extendContigCPU(ws, c, &cfg, &wc)
	}
}

func BenchmarkExtendContigMap(b *testing.B) {
	c, cfg := benchWorkload()
	var wc WorkCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extendContigMapRef(c, &cfg, &wc)
	}
}
