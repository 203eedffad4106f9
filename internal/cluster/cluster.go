// Package cluster models MetaHipMer2 runs on a Summit-like machine,
// producing the paper's scaling figures (Figs 2, 12, 13, 14) from
// measurements of this repository's own implementations (DESIGN.md §2).
//
// The model has three ingredients:
//
//  1. A local-assembly base measurement: work counts from the CPU
//     reference and kernel statistics from the simt GPU driver, taken on a
//     real (scaled) workload. Node shares at any node count are expressed
//     as replication factors of that base workload; GPU times extrapolate
//     exactly under the simt analytic time model (simt.Stats.Scaled),
//     which is what produces the paper's shrinking GPU advantage as
//     per-GPU work collapses at scale.
//  2. A per-core CPU cost model for the local-assembly operations,
//     calibrated so the 64-node CPU/GPU ratio lands in the regime the
//     paper reports (≈7×) — the paper's own absolute numbers play the
//     same anchoring role.
//  3. Published anchors for the rest of the pipeline: the Fig 2a stage
//     shares of the 2128 s, 64-node WA run, strong-scaled per stage with
//     documented efficiency exponents (communication-dominated stages
//     scale worse than local ones, §4.4).
package cluster

import (
	"fmt"
	"math"
	"time"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// Summit node parameters (§4.1).
const (
	CoresPerNode = 42
	GPUsPerNode  = 6
)

// Model extrapolates a measured local-assembly base workload.
type Model struct {
	Dev simt.DeviceConfig
	// CPUCost is one Summit POWER9 core's cost model; FitScaling rescales
	// it so that the 64-node WA-share workload gives the ≈7× GPU advantage
	// of Fig 13.
	CPUCost locassm.CPUCost

	// Base workload measurements.
	BaseCPU      locassm.WorkCounts // CPU reference work on the base workload
	BaseStats    simt.Stats         // merged GPU kernel counters
	BaseLaunches int                // kernel launches in the base run
	BaseBytes    int64              // H2D+D2H bytes (from transfer time)
}

// NewModel builds the model from a CPU run and a GPU run over the same
// workload.
func NewModel(dev simt.DeviceConfig, cpu *locassm.CPUResult, gpu *locassm.GPUResult) (*Model, error) {
	if len(gpu.Kernels) == 0 {
		return nil, fmt.Errorf("cluster: GPU result has no kernels")
	}
	m := &Model{Dev: dev, CPUCost: locassm.DefaultCPUCost(), BaseCPU: cpu.Counts}
	for i := range gpu.Kernels {
		m.BaseStats.Add(&gpu.Kernels[i].Stats)
	}
	m.BaseLaunches = len(gpu.Kernels)
	// Recover transferred bytes from the modeled transfer time.
	m.BaseBytes = int64(gpu.TransferTime.Seconds() * dev.PCIeGBps * 1e9)
	return m, nil
}

// ModelFromWorkload runs the CPU reference and the GPU driver (v2 kernel)
// over the same local-assembly workload and builds the scaling model from
// the two measurements.
func ModelFromWorkload(ctgs []*locassm.CtgWithReads, cfg locassm.Config) (*Model, error) {
	cpu, err := locassm.RunCPU(ctgs, cfg, 0)
	if err != nil {
		return nil, err
	}
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	drv, err := locassm.NewDriver(dev, locassm.GPUConfig{Config: cfg, WarpPerTable: true})
	if err != nil {
		return nil, err
	}
	gpu, err := drv.Run(ctgs)
	if err != nil {
		return nil, err
	}
	return NewModel(dev.Cfg, cpu, gpu)
}

// GPUSeconds models one GPU executing f copies of the base workload:
// kernel time under the analytic model on scaled counters, plus per-launch
// overheads and PCIe transfers. The per-warp dependent chain does not
// scale, which floors the time when f is small — the §4.4 "less work per
// GPU" effect.
func (m *Model) GPUSeconds(f float64) float64 {
	stats := m.BaseStats.Scaled(f)
	t, _ := simt.TimeFor(m.Dev, &stats)
	kernel := t - m.Dev.KernelLaunchOverhead // TimeFor includes one launch

	launches := int(math.Ceil(float64(m.BaseLaunches) * f))
	if launches < 1 {
		launches = 1
	}
	overhead := time.Duration(launches) * m.Dev.KernelLaunchOverhead
	transfer := time.Duration(float64(m.BaseBytes) * f / (m.Dev.PCIeGBps * 1e9) * float64(time.Second))
	return (kernel + overhead + transfer).Seconds()
}

// CPUNodeSeconds models one node's cores executing f copies of the base
// workload with the embarrassingly parallel CPU implementation (§2.3).
func (m *Model) CPUNodeSeconds(f float64) float64 {
	wc := locassm.WorkCounts{
		TableBuilds:   int64(float64(m.BaseCPU.TableBuilds) * f),
		KmersInserted: int64(float64(m.BaseCPU.KmersInserted) * f),
		Lookups:       int64(float64(m.BaseCPU.Lookups) * f),
		WalkSteps:     int64(float64(m.BaseCPU.WalkSteps) * f),
	}
	return m.CPUCost.NS(wc) * 1e-9 / CoresPerNode
}

// GPUNodeSeconds models one node: the share is split evenly over the six
// GPUs, which run concurrently.
func (m *Model) GPUNodeSeconds(f float64) float64 {
	return m.GPUSeconds(f / GPUsPerNode)
}

// FitScaling calibrates the model against the two published Fig 13
// endpoints: the local-assembly speedup at 64 nodes (≈7×) and at 1024
// nodes (2.65×). It returns the replication factor f64 representing one
// node's share at 64 nodes, and rescales the CPU cost model so the 64-node
// ratio matches. Intermediate node counts are then model predictions.
//
// The shape identity used: r(f)/r(f/16) = 16·gpu(f/16)/gpu(f), which runs
// monotonically from 16 (both shares latency-floored) down to 1 (both in
// the linear regime), so a binary search pins f64.
func (m *Model) FitScaling(r64, r1024 float64) (float64, error) {
	if r64 <= r1024 || r1024 <= 0 {
		return 0, fmt.Errorf("cluster: need r64 > r1024 > 0")
	}
	want := r64 / r1024
	g := func(f float64) float64 {
		return 16 * m.GPUNodeSeconds(f/16) / m.GPUNodeSeconds(f)
	}
	lo, hi := 1e-3, 1e7
	if g(lo) < want || g(hi) > want {
		return 0, fmt.Errorf("cluster: decline %0.2f outside model range [%0.2f, %0.2f]",
			want, g(hi), g(lo))
	}
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(lo * hi)
		if g(mid) > want {
			lo = mid
		} else {
			hi = mid
		}
	}
	f64 := math.Sqrt(lo * hi)

	// Rescale CPU costs so the 64-node ratio hits r64.
	cur := m.CPUNodeSeconds(f64) / m.GPUNodeSeconds(f64)
	scale := r64 / cur
	m.CPUCost.InsertNS *= scale
	m.CPUCost.LookupNS *= scale
	m.CPUCost.WalkNS *= scale
	m.CPUCost.BuildNS *= scale
	return f64, nil
}

// FitRatio finds the replication factor at which the (calibrated) model
// yields the given CPU/GPU ratio — used to place the arcticsynth 2-node
// point of Fig 12 on the same curve.
func (m *Model) FitRatio(target float64) (float64, error) {
	r := func(f float64) float64 { return m.CPUNodeSeconds(f) / m.GPUNodeSeconds(f) }
	lo, hi := 1e-4, 1e7
	if r(lo) > target || r(hi) < target {
		return 0, fmt.Errorf("cluster: ratio %0.2f outside model range [%0.2f, %0.2f]",
			target, r(lo), r(hi))
	}
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(lo * hi)
		if r(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

// LAPoint is one Fig 13 sample.
type LAPoint struct {
	Nodes   int
	CPUSec  float64
	GPUSec  float64
	Speedup float64
}

// LAScaling produces the Fig 13 series: local-assembly time per node count
// with CPU and GPU implementations, strong scaling a fixed total workload.
// f64 is the replication factor representing ONE NODE's share at 64 nodes;
// at N nodes each node holds f64·64/N copies of the base workload.
func (m *Model) LAScaling(nodes []int, f64 float64) []LAPoint {
	out := make([]LAPoint, 0, len(nodes))
	for _, n := range nodes {
		f := f64 * 64 / float64(n)
		p := LAPoint{
			Nodes:  n,
			CPUSec: m.CPUNodeSeconds(f),
			GPUSec: m.GPUNodeSeconds(f),
		}
		if p.GPUSec > 0 {
			p.Speedup = p.CPUSec / p.GPUSec
		}
		out = append(out, p)
	}
	return out
}

// Anchors from the paper's 64-node WA run (Fig 2a): total wall time and
// stage shares. The shares are visual estimates from the pie chart, with
// local assembly pinned at the 34% the text states; they sum to 1.
var (
	// WATotalCPU64Sec is Fig 2a's total (CPU local assembly).
	WATotalCPU64Sec = 2128.0

	// WAShares estimates Fig 2a's slices.
	WAShares = [pipeline.NumStages]float64{
		pipeline.StageMergeReads:    0.07,
		pipeline.StageKmerAnalysis:  0.16,
		pipeline.StageContigGen:     0.10,
		pipeline.StageAlignment:     0.13,
		pipeline.StageAlnKernel:     0.05,
		pipeline.StageLocalAssembly: 0.34,
		pipeline.StageScaffolding:   0.10,
		pipeline.StageFileIO:        0.05,
	}

	// Exponents gives each stage's strong-scaling efficiency: stage time
	// at N nodes is share·total·(64/N)^e. Node-local stages scale
	// perfectly (e=1); communication-dominated stages scale sub-linearly,
	// which is why communication dominates at high node counts (§4.4).
	Exponents = [pipeline.NumStages]float64{
		pipeline.StageMergeReads:    0.95,
		pipeline.StageKmerAnalysis:  0.72,
		pipeline.StageContigGen:     0.72,
		pipeline.StageAlignment:     0.75,
		pipeline.StageAlnKernel:     1.0,
		pipeline.StageLocalAssembly: 1.0, // replaced by the LA model below
		pipeline.StageScaffolding:   0.70,
		pipeline.StageFileIO:        0.90,
	}
)

// PipelinePoint is one Fig 14 sample.
type PipelinePoint struct {
	Nodes      int
	CPUSec     float64 // total pipeline, CPU local assembly
	GPUSec     float64 // total pipeline, GPU local assembly
	SpeedupPct float64 // (CPU/GPU − 1) × 100
	LACPUSec   float64
	LAGPUSec   float64
}

// PipelineScaling produces the Fig 14 series. The local-assembly entries
// come from the measured model (anchored so the 64-node CPU LA time equals
// the Fig 2a share); every other stage follows the published-share strong
// scaling above.
func (m *Model) PipelineScaling(nodes []int, f64 float64) []PipelinePoint {
	laAnchor := WAShares[pipeline.StageLocalAssembly] * WATotalCPU64Sec
	base := m.CPUNodeSeconds(f64)
	scale := laAnchor / base // units calibration (documented in DESIGN.md)

	out := make([]PipelinePoint, 0, len(nodes))
	for _, n := range nodes {
		f := f64 * 64 / float64(n)
		p := PipelinePoint{Nodes: n}
		p.LACPUSec = m.CPUNodeSeconds(f) * scale
		p.LAGPUSec = m.GPUNodeSeconds(f) * scale
		for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
			if s == pipeline.StageLocalAssembly {
				continue
			}
			st := WAShares[s] * WATotalCPU64Sec * math.Pow(64/float64(n), Exponents[s])
			p.CPUSec += st
			p.GPUSec += st
		}
		p.CPUSec += p.LACPUSec
		p.GPUSec += p.LAGPUSec
		if p.GPUSec > 0 {
			p.SpeedupPct = (p.CPUSec/p.GPUSec - 1) * 100
		}
		out = append(out, p)
	}
	return out
}

// Breakdown is a per-stage time split (Fig 2 / Fig 12).
type Breakdown struct {
	TotalSec float64
	StageSec [pipeline.NumStages]float64
}

// Percent returns a stage's share of the total.
func (b *Breakdown) Percent(s pipeline.Stage) float64 {
	if b.TotalSec == 0 {
		return 0
	}
	return 100 * b.StageSec[s] / b.TotalSec
}

// WABreakdown64 produces the Fig 2a/2b pair: the 64-node WA stage
// breakdown with CPU local assembly and with GPU local assembly, where the
// GPU LA time comes from the measured model ratio.
func (m *Model) WABreakdown64(f64 float64) (cpu, gpu Breakdown) {
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		cpu.StageSec[s] = WAShares[s] * WATotalCPU64Sec
		gpu.StageSec[s] = cpu.StageSec[s]
	}
	ratio := m.CPUNodeSeconds(f64) / m.GPUNodeSeconds(f64)
	gpu.StageSec[pipeline.StageLocalAssembly] = cpu.StageSec[pipeline.StageLocalAssembly] / ratio
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		cpu.TotalSec += cpu.StageSec[s]
		gpu.TotalSec += gpu.StageSec[s]
	}
	return cpu, gpu
}

// TwoNodeBreakdown produces Fig 12: the 2-node arcticsynth run. totalSec
// and laShare anchor the CPU bar (the paper shows ≈460 s with ≈14% local
// assembly); stage proportions for the other slices come from measured
// pipeline timings t (scaled to fill the remainder); the GPU bar divides
// local assembly by the measured model ratio at factor f2.
func (m *Model) TwoNodeBreakdown(t pipeline.Timings, totalSec, laShare, f2 float64) (cpu, gpu Breakdown) {
	laCPU := totalSec * laShare
	rest := totalSec - laCPU

	// Distribute the remainder proportionally to measured stage times.
	var measuredRest time.Duration
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		if s != pipeline.StageLocalAssembly {
			measuredRest += t.Wall[s]
		}
	}
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		if s == pipeline.StageLocalAssembly {
			cpu.StageSec[s] = laCPU
			continue
		}
		if measuredRest > 0 {
			cpu.StageSec[s] = rest * float64(t.Wall[s]) / float64(measuredRest)
		}
	}
	gpu = cpu
	ratio := m.CPUNodeSeconds(f2) / m.GPUNodeSeconds(f2)
	gpu.StageSec[pipeline.StageLocalAssembly] = laCPU / ratio
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		cpu.TotalSec += cpu.StageSec[s]
		gpu.TotalSec += gpu.StageSec[s]
	}
	return cpu, gpu
}
