package roofline

import (
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/simt"
)

func fakeResult(name string, warps, instrs, globalTx, localTx uint64, active uint64) simt.KernelResult {
	var k simt.KernelResult
	k.Kernel = name
	k.Warps = warps
	k.WarpInstrs[simt.IInt] = instrs / 2
	k.WarpInstrs[simt.ILdGlobal] = instrs / 4
	k.WarpInstrs[simt.ILdLocal] = instrs / 8
	k.WarpInstrs[simt.IFP] = instrs / 8
	for c := 0; c < simt.NumInstrClasses; c++ {
		k.ThreadInstrs[c] = k.WarpInstrs[c] * active
		k.PredicatedOff += k.WarpInstrs[c] * (32 - active)
	}
	k.GlobalSectors = globalTx
	k.LocalSectors = localTx
	k.MaxSerialMemChain = 1000
	k.Time = clock.Device(10 * time.Millisecond)
	k.Bound = "issue"
	return k
}

func TestAnalyzeBasics(t *testing.T) {
	cfg := simt.V100()
	k := fakeResult("v2", 100, 8_000_000, 500_000, 1_000_000, 16)
	a := Analyze(cfg, k)

	if a.Kernel != "v2" || a.Bound != "issue" {
		t.Error("metadata lost")
	}
	wantGIPS := float64(k.TotalWarpInstrs()) / 0.010 / 1e9
	if diff := a.WarpGIPS - wantGIPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("GIPS %f, want %f", a.WarpGIPS, wantGIPS)
	}
	// Half the lanes active: non-predicated rate is half the issue rate.
	if ratio := a.NonPredWarpGIPS / a.WarpGIPS; ratio < 0.49 || ratio > 0.51 {
		t.Errorf("non-predicated ratio %f, want 0.5", ratio)
	}
	wantII := float64(k.TotalWarpInstrs()) / float64(k.L1Sectors())
	if diff := a.IntensityL1 - wantII; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("II %f, want %f", a.IntensityL1, wantII)
	}
	if a.PeakGIPS != cfg.PeakWarpGIPS() {
		t.Error("peak not propagated")
	}
	// 1M local of 1.5M total L1.
	if a.LocalSharePct < 66 || a.LocalSharePct > 67 {
		t.Errorf("local share %f", a.LocalSharePct)
	}
}

func TestAnalyzeZeroSafe(t *testing.T) {
	a := Analyze(simt.V100(), simt.KernelResult{})
	if a.WarpGIPS != 0 || a.IntensityL1 != 0 || a.IntensityGlobal != 0 {
		t.Error("zero kernel should produce zero metrics, not NaN/panic")
	}
}

func TestGroupBreakdown(t *testing.T) {
	k := fakeResult("x", 10, 800, 10, 10, 32)
	k.WarpInstrs[simt.IAtomic] = 7
	a := Analyze(simt.V100(), k)
	g := a.GroupBreakdown()
	if g["global_memory_inst"] != 200+7 {
		t.Errorf("global group %d, want 207", g["global_memory_inst"])
	}
	if g["local_memory_inst"] != 100 {
		t.Errorf("local group %d", g["local_memory_inst"])
	}
	if g["fp_inst"] != 100 {
		t.Errorf("fp group %d", g["fp_inst"])
	}
	if g["int_inst"] != 400 {
		t.Errorf("int group %d", g["int_inst"])
	}
}

func TestTables(t *testing.T) {
	cfg := simt.V100()
	as := []Analysis{
		Analyze(cfg, fakeResult("v1", 10, 1000, 100, 300, 1)),
		Analyze(cfg, fakeResult("v2", 10, 600, 40, 300, 24)),
	}
	tab := Table(as)
	if !strings.Contains(tab, "v1") || !strings.Contains(tab, "v2") ||
		!strings.Contains(tab, "489.6") {
		t.Errorf("table missing content:\n%s", tab)
	}
	bt := BreakdownTable(as)
	if !strings.Contains(bt, "global_memory_inst") {
		t.Errorf("breakdown missing groups:\n%s", bt)
	}
}

func TestMerge(t *testing.T) {
	cfg := simt.V100()
	ks := []simt.KernelResult{
		fakeResult("a", 10, 1000, 100, 50, 16),
		fakeResult("a", 20, 2000, 200, 100, 16),
	}
	m := Merge("a_all", cfg, ks)
	if m.Warps != 30 {
		t.Errorf("merged warps %d", m.Warps)
	}
	if m.TotalWarpInstrs() != ks[0].TotalWarpInstrs()+ks[1].TotalWarpInstrs() {
		t.Error("instrs not summed")
	}
	if m.Time != clock.Device(20*time.Millisecond) {
		t.Errorf("time %v", m.Time)
	}
	if m.Bound == "" {
		t.Error("bound not recomputed")
	}
}
