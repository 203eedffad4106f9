package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// buildWorkload makes a small but non-trivial local-assembly workload:
// contigs cut from hidden genomes with reads tiling past the ends.
func buildWorkload(t *testing.T, n int) ([]*locassm.CtgWithReads, locassm.Config) {
	t.Helper()
	cfg := locassm.Config{
		MinMer: 11, MaxMer: 19, StartMer: 15, MerStep: 4,
		MaxWalkLen: 120, MaxIters: 8,
		QualCutoff: dna.QualCutoff, MinViableScore: 2, MaxReadLen: 150,
	}
	rng := rand.New(rand.NewSource(99))
	var ctgs []*locassm.CtgWithReads
	for i := 0; i < n; i++ {
		genome := make([]byte, 600)
		for j := range genome {
			genome[j] = dna.Alphabet[rng.Intn(4)]
		}
		c := &locassm.CtgWithReads{ID: int64(i), Seq: append([]byte(nil), genome[200:400]...)}
		for pos := 330; pos+80 <= 600; pos += 9 {
			q := make([]byte, 80)
			for k := range q {
				q[k] = dna.QualChar(35)
			}
			c.RightReads = append(c.RightReads, dna.Read{
				ID: "r", Seq: append([]byte(nil), genome[pos:pos+80]...), Qual: q,
			})
		}
		ctgs = append(ctgs, c)
	}
	return ctgs, cfg
}

func buildModel(t *testing.T, n int) (*Model, locassm.Config) {
	t.Helper()
	ctgs, cfg := buildWorkload(t, n)
	m, err := ModelFromWorkload(ctgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// TestModelFromWorkloadClosesItsDevice: the device the model is measured on
// is the function's own; left open, its parked warp pool pins the arena.
func TestModelFromWorkloadClosesItsDevice(t *testing.T) {
	ctgs, cfg := buildWorkload(t, 6)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := ModelFromWorkload(ctgs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Closed pools' workers exit on their own schedule.
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d → %d over three models", before, n)
	}
}

func TestNewModelRequiresKernels(t *testing.T) {
	if _, err := NewModel(simtV100(), &locassm.CPUResult{}, &locassm.GPUResult{}); err == nil {
		t.Error("empty GPU result accepted")
	}
}

func TestCPUNodeSecondsLinear(t *testing.T) {
	m, _ := buildModel(t, 10)
	a := m.CPUNodeSeconds(1)
	b := m.CPUNodeSeconds(2)
	if math.Abs(float64(b-2*a)) > 1e-9 {
		t.Errorf("CPU time not linear: %g vs 2×%g", b, a)
	}
	if a <= 0 {
		t.Error("zero CPU time")
	}
}

func TestGPUSecondsFloorAndLinearRegimes(t *testing.T) {
	m, _ := buildModel(t, 10)
	// Deep floor: shrinking the workload further barely changes time.
	tiny := m.GPUSeconds(0.01)
	tinier := m.GPUSeconds(0.005)
	if rel := math.Abs(float64(tiny-tinier)) / float64(tiny); rel > 0.05 {
		t.Errorf("no latency floor: %g vs %g", tiny, tinier)
	}
	// Linear regime: large workloads scale proportionally.
	big := m.GPUSeconds(2000)
	bigger := m.GPUSeconds(4000)
	if ratio := bigger / big; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("linear regime broken: ratio %f", ratio)
	}
	// Monotonicity.
	if m.GPUSeconds(10) > m.GPUSeconds(100) {
		t.Error("GPU time not monotone in work")
	}
}

func TestLAScalingShape(t *testing.T) {
	m, _ := buildModel(t, 12)
	f64, err := m.FitScaling(7.2, 2.65)
	if err != nil {
		t.Fatal(err)
	}
	pts := m.LAScaling([]int{64, 128, 256, 512, 1024}, f64)
	if len(pts) != 5 {
		t.Fatal("wrong point count")
	}
	// Endpoints calibrated.
	if math.Abs(pts[0].Speedup-7.2) > 0.15 {
		t.Errorf("64-node speedup %f, want ≈7.2", pts[0].Speedup)
	}
	if math.Abs(pts[4].Speedup-2.65) > 0.15 {
		t.Errorf("1024-node speedup %f, want ≈2.65", pts[4].Speedup)
	}
	for i := 1; i < len(pts); i++ {
		// CPU halves each doubling (perfect strong scaling).
		if r := float64(pts[i-1].CPUSec / pts[i].CPUSec); math.Abs(r-2) > 1e-3 {
			t.Errorf("CPU scaling at %d nodes: factor %f", pts[i].Nodes, r)
		}
		// GPU advantage never grows with node count.
		if pts[i].Speedup > pts[i-1].Speedup+1e-9 {
			t.Errorf("speedup increased at %d nodes", pts[i].Nodes)
		}
		// GPU still wins everywhere (paper: 2.65x at worst).
		if pts[i].Speedup < 1 {
			t.Errorf("GPU slower than CPU at %d nodes", pts[i].Nodes)
		}
	}
}

func TestFitScalingValidation(t *testing.T) {
	m, _ := buildModel(t, 6)
	if _, err := m.FitScaling(2, 3); err == nil {
		t.Error("inverted targets accepted")
	}
	if _, err := m.FitScaling(7.2, 0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestFitRatio(t *testing.T) {
	m, _ := buildModel(t, 8)
	if _, err := m.FitScaling(7.2, 2.65); err != nil {
		t.Fatal(err)
	}
	f, err := m.FitRatio(4.3)
	if err != nil {
		t.Fatal(err)
	}
	got := m.CPUNodeSeconds(f) / m.GPUNodeSeconds(f)
	if math.Abs(float64(got)-4.3) > 0.1 {
		t.Errorf("FitRatio landed at %f, want 4.3", got)
	}
}

func TestPipelineScalingAnchors(t *testing.T) {
	m, _ := buildModel(t, 12)
	f64, err := m.FitScaling(7.2, 2.65)
	if err != nil {
		t.Fatal(err)
	}
	pts := m.PipelineScaling([]int{64, 128, 256, 512, 1024}, f64)
	// 64-node totals match the paper's anchors: 2128 s CPU, ≈1495 s GPU.
	if math.Abs(float64(pts[0].CPUSec)-2128) > 1 {
		t.Errorf("64-node CPU total %f, want 2128", pts[0].CPUSec)
	}
	if pts[0].GPUSec < 1400 || pts[0].GPUSec > 1600 {
		t.Errorf("64-node GPU total %f, paper shows 1495", pts[0].GPUSec)
	}
	if pts[0].SpeedupPct < 35 || pts[0].SpeedupPct > 50 {
		t.Errorf("64-node speedup %f%%, paper shows ≈42%%", pts[0].SpeedupPct)
	}
	// Speedup percentage declines with node count and stays positive.
	for i := 1; i < len(pts); i++ {
		if pts[i].SpeedupPct > pts[i-1].SpeedupPct {
			t.Errorf("pipeline speedup grew at %d nodes", pts[i].Nodes)
		}
		if pts[i].SpeedupPct <= 0 {
			t.Errorf("pipeline speedup non-positive at %d nodes", pts[i].Nodes)
		}
		// Totals decrease with more nodes (strong scaling).
		if pts[i].CPUSec >= pts[i-1].CPUSec || pts[i].GPUSec >= pts[i-1].GPUSec {
			t.Errorf("totals not decreasing at %d nodes", pts[i].Nodes)
		}
	}
}

func TestWABreakdown64(t *testing.T) {
	m, _ := buildModel(t, 12)
	f64, err := m.FitScaling(7.2, 2.65)
	if err != nil {
		t.Fatal(err)
	}
	cpu, gpu := m.WABreakdown64(f64)
	if math.Abs(float64(cpu.TotalSec)-2128) > 1 {
		t.Errorf("CPU total %f", cpu.TotalSec)
	}
	laPct := cpu.Percent(pipeline.StageLocalAssembly)
	if math.Abs(laPct-34) > 0.5 {
		t.Errorf("CPU LA share %f%%, paper: 34%%", laPct)
	}
	gpuLaPct := gpu.Percent(pipeline.StageLocalAssembly)
	if gpuLaPct > 10 {
		t.Errorf("GPU LA share %f%%, paper: 6%%", gpuLaPct)
	}
	if gpu.TotalSec >= cpu.TotalSec {
		t.Error("GPU total not smaller")
	}
	// Shares sum to 100%.
	var sum float64
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		sum += cpu.Percent(s)
	}
	if math.Abs(sum-100) > 0.01 {
		t.Errorf("shares sum to %f", sum)
	}
}

func TestTwoNodeBreakdown(t *testing.T) {
	m, _ := buildModel(t, 12)
	if _, err := m.FitScaling(7.2, 2.65); err != nil {
		t.Fatal(err)
	}
	f2, err := m.FitRatio(4.3)
	if err != nil {
		t.Fatal(err)
	}
	var tm pipeline.Timings
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		tm.Wall[s] = 100
	}
	cpu, gpu := m.TwoNodeBreakdown(tm, 460, 0.14, f2)
	if math.Abs(float64(cpu.TotalSec)-460) > 0.5 {
		t.Errorf("CPU total %f, want 460", cpu.TotalSec)
	}
	la := cpu.StageSec[pipeline.StageLocalAssembly]
	if math.Abs(float64(la)-460*0.14) > 0.5 {
		t.Errorf("LA seconds %f", la)
	}
	gpuLA := gpu.StageSec[pipeline.StageLocalAssembly]
	ratio := la / gpuLA
	if math.Abs(float64(ratio)-4.3) > 0.2 {
		t.Errorf("2-node LA speedup %f, want 4.3", ratio)
	}
	// Overall improvement ≈ 12% (paper).
	imp := (cpu.TotalSec/gpu.TotalSec - 1) * 100
	if imp < 9 || imp > 15 {
		t.Errorf("overall improvement %f%%, paper shows ≈12%%", imp)
	}
}

func TestDefaultCPUCostPositive(t *testing.T) {
	c := locassm.DefaultCPUCost()
	if c.InsertNS <= 0 || c.LookupNS <= 0 || c.WalkNS <= 0 || c.BuildNS <= 0 {
		t.Error("non-positive default costs")
	}
	wc := locassm.WorkCounts{TableBuilds: 1, KmersInserted: 1000, Lookups: 100, WalkSteps: 100}
	if c.NS(wc) <= 0 {
		t.Error("zero seconds for non-zero work")
	}
}

func simtV100() simt.DeviceConfig { return simt.V100() }
