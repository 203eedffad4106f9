// Package figures regenerates every table and figure of the paper's
// evaluation section (the per-experiment index lives in DESIGN.md §4), scores
// each of the paper's claims against them (Scorecard) and lists every modeled
// number behind them (Ledger). EXPERIMENTS.md carries the last two verbatim.
package figures

import (
	"bytes"
	"fmt"
	"strings"

	"mhm2sim/internal/cluster"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/roofline"
	"mhm2sim/internal/simt"
	"mhm2sim/internal/synth"
)

// Setup bundles a dataset preset with pipeline settings.
type Setup struct {
	Preset synth.Preset
	Config pipeline.Config
}

// StandardSetup returns the full-scale (for this repository) configuration
// used by the commands: the named preset with the default pipeline.
func StandardSetup(presetName string) (Setup, error) {
	p, err := synth.PresetByName(presetName)
	if err != nil {
		return Setup{}, err
	}
	return Setup{Preset: p, Config: pipeline.DefaultConfig()}, nil
}

// QuickSetup returns a reduced configuration for benchmarks and smoke
// tests: the same structure at a fraction of the size.
func QuickSetup(presetName string) (Setup, error) {
	s, err := StandardSetup(presetName)
	if err != nil {
		return Setup{}, err
	}
	s.Preset.Com.NumGenomes = max(3, s.Preset.Com.NumGenomes/4)
	s.Preset.Com.MinGenomeLen /= 2
	s.Preset.Com.MaxGenomeLen /= 2
	s.Preset.Reads.Depth /= 1.5
	s.Config.Rounds = []int{21, 33}
	return s, nil
}

// Run executes the pipeline for the setup.
func (s Setup) Run() (*pipeline.Result, error) {
	_, pairs, err := s.Preset.Build()
	if err != nil {
		return nil, err
	}
	return pipeline.Run(pairs, s.Config)
}

// Model builds the calibrated cluster model from a pipeline run's
// local-assembly workload, fitting the published Fig 13 endpoints
// (7.2× at 64 nodes, 2.65× at 1024).
func Model(res *pipeline.Result, cfg locassm.Config) (*cluster.Model, float64, error) {
	m, err := cluster.ModelFromWorkload(res.LAWorkload, cfg)
	if err != nil {
		return nil, 0, err
	}
	f64, err := m.FitScaling(7.2, 2.65)
	if err != nil {
		return nil, 0, err
	}
	return m, f64, nil
}

// ---- Fig 2: 64-node WA stage breakdown, CPU vs GPU local assembly ----

// Fig2 renders both pies as tables.
func Fig2(m *cluster.Model, f64 float64) string {
	cpu, gpu := m.WABreakdown64(f64)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 — MetaHipMer2 64-node WA stage breakdown (model)\n")
	fmt.Fprintf(&b, "%-18s %14s %7s %14s %7s\n", "stage", "CPU-LA (s)", "%", "GPU-LA (s)", "%")
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		fmt.Fprintf(&b, "%-18s %14.0f %6.1f%% %14.0f %6.1f%%\n",
			s, cpu.StageSec[s], cpu.Percent(s), gpu.StageSec[s], gpu.Percent(s))
	}
	fmt.Fprintf(&b, "%-18s %14.0f %7s %14.0f %7s\n", "TOTAL", cpu.TotalSec, "", gpu.TotalSec, "")
	fmt.Fprintf(&b, "paper: total 2128 s with 34%% local assembly (2a) -> 1495 s with 6%% (2b)\n")
	return b.String()
}

// ---- Fig 3: contig distribution across bins vs k ----

// Fig3 renders the per-round bin distribution.
func Fig3(bins []pipeline.RoundBins) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 — distribution of contigs across bins (arcticsynth)\n")
	fmt.Fprintf(&b, "%6s %10s %10s %10s %9s %9s %9s\n",
		"k", "bin1(=0)", "bin2(<10)", "bin3(>=10)", "bin1%", "bin2%", "bin3%")
	for _, r := range bins {
		total := float64(r.Zero + r.Small + r.Large)
		if total == 0 {
			total = 1
		}
		fmt.Fprintf(&b, "%6d %10d %10d %10d %8.1f%% %8.1f%% %8.1f%%\n",
			r.K, r.Zero, r.Small, r.Large,
			100*float64(r.Zero)/total, 100*float64(r.Small)/total, 100*float64(r.Large)/total)
	}
	fmt.Fprintf(&b, "paper: bin3 < 1%%, bin2 varies 10-30%%, larger k -> more contigs with reads\n")
	return b.String()
}

// ---- Figs 8-10: instruction roofline and breakdown for v1 vs v2 ----

// RooflineResults holds the merged kernel characterizations.
type RooflineResults struct {
	V1, V2 roofline.Analysis
	// Mismatches counts the (kernel version, work item) pairs whose
	// extensions differ from the CPU reference's: the roofline of a kernel
	// that computes something else would describe nothing.
	Mismatches int
	// CPU is the reference run; Runs are the v1 and v2 driver runs the
	// analyses merge, for a caller that reports them as they are.
	CPU  *locassm.CPUResult
	Runs [2]*locassm.GPUResult
}

// RunRoofline executes the standalone local-assembly kernels (as on the
// Cori GPU node, §4.1) in both versions over the same workload, each on its
// own V100, and checks their extensions against the CPU reference.
//
// scale replays the measured counters at `scale` copies of the workload on
// one device (1 analyzes the workload as-is). The paper's standalone runs
// put the entire arcticsynth data dump on a single V100 — far more work
// than our laptop-scale workload — so figure generation passes the
// calibrated replication factor and the intensities stay identical while
// GIPS reflects a properly occupied device.
func RunRoofline(work []*locassm.CtgWithReads, cfg locassm.Config, scale float64) (RooflineResults, error) {
	var out RooflineResults
	if scale <= 0 {
		scale = 1
	}
	cpu, err := locassm.RunCPU(work, cfg, 0)
	if err != nil {
		return out, err
	}
	out.CPU = cpu
	devCfg := simt.V100()
	for i, v2 := range []bool{false, true} {
		dev := simt.NewDevice(devCfg)
		var res *locassm.GPUResult
		drv, err := locassm.NewDriver(dev, locassm.GPUConfig{Config: cfg, WarpPerTable: v2})
		if err == nil {
			res, err = drv.Run(work)
		}
		dev.Close()
		if err != nil {
			return out, err
		}
		out.Runs[i] = res
		for j := range res.Results {
			if !bytes.Equal(cpu.Results[j].LeftExt, res.Results[j].LeftExt) ||
				!bytes.Equal(cpu.Results[j].RightExt, res.Results[j].RightExt) {
				out.Mismatches++
			}
		}
		name := "v1_thread_per_table"
		if v2 {
			name = "v2_warp_per_table"
		}
		merged := roofline.Merge(name, devCfg, res.Kernels)
		if scale != 1 {
			merged.Stats = merged.Stats.Scaled(scale)
			merged.Time, merged.Bound = simt.TimeFor(devCfg, &merged.Stats)
		}
		a := roofline.Analyze(devCfg, merged)
		if v2 {
			out.V2 = a
		} else {
			out.V1 = a
		}
	}
	return out, nil
}

// Fig8Fig9 renders the roofline table (Fig 8 = v1, Fig 9 = v2).
func Fig8Fig9(r RooflineResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figs 8-9 — instruction roofline, extension kernels on V100 (model)\n")
	b.WriteString(roofline.Table([]roofline.Analysis{r.V1, r.V2}))
	fmt.Fprintf(&b, "paper: v2 moves the L1 dot up-right vs v1; v2 peaks at 14.4 GIPS;\n")
	fmt.Fprintf(&b, "       both sit near the stride-1 wall; ~70%% of L1 traffic is local memory\n")
	return b.String()
}

// Fig10 renders the grouped instruction breakdown.
func Fig10(r RooflineResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — warp instruction breakdown, v1 vs v2\n")
	b.WriteString(roofline.BreakdownTable([]roofline.Analysis{r.V1, r.V2}))
	fmt.Fprintf(&b, "paper: global-memory instructions drop sharply from v1 to v2\n")
	return b.String()
}

// ---- Fig 12: two-node arcticsynth breakdown ----

// twoNode places the 2-node arcticsynth run on the calibrated curve: the
// paper's anchors are ≈460 s total, ≈14% of it local assembly and a 4.3×
// local-assembly speedup, which fixes the per-node share f2. What follows
// from them — the GPU run's total — is the model's; the other stages' split
// of the remaining 86% is t's, this host's wall times.
func twoNode(m *cluster.Model, t pipeline.Timings) (cpu, gpu cluster.Breakdown, f2 float64, err error) {
	f2, err = m.FitRatio(4.3)
	if err != nil {
		return cpu, gpu, 0, err
	}
	cpu, gpu = m.TwoNodeBreakdown(t, 460, 0.14, f2)
	return cpu, gpu, f2, nil
}

// Fig12 renders the 2-node arcticsynth comparison.
func Fig12(m *cluster.Model, t pipeline.Timings) (string, error) {
	cpu, gpu, _, err := twoNode(m, t)
	if err != nil {
		return "", err
	}
	const la = pipeline.StageLocalAssembly
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — 2-node arcticsynth stage breakdown (local assembly and totals: model;\n")
	fmt.Fprintf(&b, "         the other stages split the rest by this host's wall times and vary run to run)\n")
	fmt.Fprintf(&b, "%-18s %14s %14s  %s\n", "stage", "CPU-LA (s)", "GPU-LA (s)", "clock")
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		clock := "host-wall share"
		if s == la {
			clock = "cluster-model"
		}
		fmt.Fprintf(&b, "%-18s %14.1f %14.1f  %s\n", s, cpu.StageSec[s], gpu.StageSec[s], clock)
	}
	fmt.Fprintf(&b, "%-18s %14.1f %14.1f  cluster-model   (LA speedup %.1fx, overall +%.0f%%)\n",
		"TOTAL", cpu.TotalSec, gpu.TotalSec, cpu.StageSec[la]/gpu.StageSec[la], (cpu.TotalSec/gpu.TotalSec-1)*100)
	fmt.Fprintf(&b, "paper: local assembly 4.3x faster on GPU; ~12%% overall improvement\n")
	return b.String(), nil
}

// ---- Figs 13-14: Summit strong scaling ----

// ScalingNodes is the paper's node-count sweep.
var ScalingNodes = []int{64, 128, 256, 512, 1024}

// Fig13 renders the local-assembly scaling series.
func Fig13(m *cluster.Model, f64 float64) string {
	laAnchor := cluster.WAShares[pipeline.StageLocalAssembly] * cluster.WATotalCPU64Sec
	scale := laAnchor / m.CPUNodeSeconds(f64)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13 — local assembly CPU vs GPU on Summit, WA dataset (model)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %9s\n", "nodes", "CPU (s)", "GPU (s)", "speedup")
	for _, p := range m.LAScaling(ScalingNodes, f64) {
		fmt.Fprintf(&b, "%6d %12.0f %12.0f %8.2fx\n",
			p.Nodes, p.CPUSec*scale, p.GPUSec*scale, p.Speedup)
	}
	fmt.Fprintf(&b, "paper: >7x at 64 nodes, deteriorating to 2.65x at 1024 nodes\n")
	return b.String()
}

// Fig14 renders the whole-pipeline scaling series.
func Fig14(m *cluster.Model, f64 float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — MetaHipMer2 total runtime with and without GPU local assembly (model)\n")
	fmt.Fprintf(&b, "%6s %14s %14s %10s\n", "nodes", "CPU-LA (s)", "GPU-LA (s)", "speedup")
	for _, p := range m.PipelineScaling(ScalingNodes, f64) {
		fmt.Fprintf(&b, "%6d %14.0f %14.0f %9.1f%%\n", p.Nodes, p.CPUSec, p.GPUSec, p.SpeedupPct)
	}
	fmt.Fprintf(&b, "paper: ~42%% peak improvement at <=128 nodes, shrinking as communication dominates\n")
	return b.String()
}
