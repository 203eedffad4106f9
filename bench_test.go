package mhm2sim

// One benchmark per table/figure of the paper's evaluation section
// (DESIGN.md §4 is the index). Each benchmark regenerates its figure's
// series through the same internal/figures harness the cmd/figures tool
// uses, timing the full regeneration. Reduced ("quick") presets keep the
// suite runnable in minutes; `go run ./cmd/figures` produces the
// full-scale versions.

import (
	"strings"
	"sync"
	"testing"

	"mhm2sim/internal/cluster"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/figures"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// benchState shares the expensive pipeline runs and calibrated model
// across benchmarks.
type benchState struct {
	arctic    figures.Setup
	arcticRes *pipeline.Result
	wa        figures.Setup
	waRes     *pipeline.Result
	model     *cluster.Model
	f64       float64
	f2        float64
}

var (
	stateOnce sync.Once
	state     benchState
	stateErr  error
)

func getState(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		if state.arctic, stateErr = figures.QuickSetup("arcticsynth"); stateErr != nil {
			return
		}
		if state.arcticRes, stateErr = state.arctic.Run(false); stateErr != nil {
			return
		}
		if state.wa, stateErr = figures.QuickSetup("WA"); stateErr != nil {
			return
		}
		if state.waRes, stateErr = state.wa.Run(false); stateErr != nil {
			return
		}
		if state.model, state.f64, stateErr = figures.Model(state.waRes, state.wa.Config.Engine.Config); stateErr != nil {
			return
		}
		state.f2, stateErr = state.model.FitRatio(4.3)
	})
	if stateErr != nil {
		b.Fatal(stateErr)
	}
	return &state
}

// BenchmarkFig2Breakdown regenerates the 64-node WA stage breakdowns
// (total 2128 s with 34% local assembly → 1495 s with 6%).
func BenchmarkFig2Breakdown(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		out := figures.Fig2(s.model, s.f64)
		if !strings.Contains(out, "local assembly") {
			b.Fatal("malformed Fig 2")
		}
	}
}

// BenchmarkFig3Binning regenerates the contig-per-bin distribution across
// k (bin 1 largest, bin 3 smallest, more candidates at larger k).
func BenchmarkFig3Binning(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		out := figures.Fig3(s.arcticRes.Bins)
		if !strings.Contains(out, "bin3") {
			b.Fatal("malformed Fig 3")
		}
	}
}

// benchRoofline shares the kernel re-execution for Figs 8-10.
var (
	rooflineOnce sync.Once
	rooflineRes  figures.RooflineResults
	rooflineErr  error
)

func getRoofline(b *testing.B) figures.RooflineResults {
	b.Helper()
	s := getState(b)
	rooflineOnce.Do(func() {
		rooflineRes, rooflineErr = figures.RunRoofline(
			s.arcticRes.LAWorkload, s.arctic.Config.Engine.Config, 2*s.f2)
	})
	if rooflineErr != nil {
		b.Fatal(rooflineErr)
	}
	return rooflineRes
}

// BenchmarkFig8RooflineV1 characterizes the thread-per-table kernel.
func BenchmarkFig8RooflineV1(b *testing.B) {
	rf := getRoofline(b)
	for i := 0; i < b.N; i++ {
		if rf.V1.WarpGIPS <= 0 || rf.V1.WarpGIPS > rf.V1.PeakGIPS {
			b.Fatal("v1 GIPS out of range")
		}
	}
}

// BenchmarkFig9RooflineV2 characterizes the warp-per-table kernel; its dot
// must sit up and to the right of v1's.
func BenchmarkFig9RooflineV2(b *testing.B) {
	rf := getRoofline(b)
	for i := 0; i < b.N; i++ {
		if rf.V2.WarpGIPS <= rf.V1.WarpGIPS {
			b.Fatal("v2 not faster than v1")
		}
		if rf.V2.IntensityL1 <= rf.V1.IntensityL1 {
			b.Fatal("v2 intensity not above v1")
		}
	}
}

// BenchmarkFig10InstrBreakdown regenerates the grouped instruction counts
// (global-memory instructions drop sharply from v1 to v2).
func BenchmarkFig10InstrBreakdown(b *testing.B) {
	rf := getRoofline(b)
	for i := 0; i < b.N; i++ {
		g1 := rf.V1.GroupBreakdown()["global_memory_inst"]
		g2 := rf.V2.GroupBreakdown()["global_memory_inst"]
		if g2 >= g1 {
			b.Fatal("v2 did not reduce global-memory instructions")
		}
	}
}

// BenchmarkFig12TwoNode regenerates the 2-node arcticsynth comparison
// (4.3x local assembly, ~12% overall).
func BenchmarkFig12TwoNode(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		out, err := figures.Fig12(s.model, s.arcticRes.Timings)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "4.3") {
			b.Fatal("malformed Fig 12")
		}
	}
}

// BenchmarkFig13LocalAssemblyScaling regenerates the local-assembly strong
// scaling (7.2x at 64 nodes → 2.65x at 1024).
func BenchmarkFig13LocalAssemblyScaling(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		pts := s.model.LAScaling(figures.ScalingNodes, s.f64)
		if pts[0].Speedup < 6.5 || pts[len(pts)-1].Speedup > 3.2 {
			b.Fatalf("scaling endpoints off: %.2f / %.2f",
				pts[0].Speedup, pts[len(pts)-1].Speedup)
		}
	}
}

// BenchmarkFig14PipelineScaling regenerates the whole-pipeline scaling
// (≈42% at 64 nodes, declining with node count).
func BenchmarkFig14PipelineScaling(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		pts := s.model.PipelineScaling(figures.ScalingNodes, s.f64)
		if pts[0].SpeedupPct < 35 || pts[0].SpeedupPct > 50 {
			b.Fatalf("64-node speedup %.1f%% out of range", pts[0].SpeedupPct)
		}
	}
}

// BenchmarkPipelineCPU and BenchmarkPipelineGPU time the end-to-end
// pipeline itself under both local-assembly implementations (wall time of
// this repository's code, not model time).
func BenchmarkPipelineCPU(b *testing.B) {
	s := getState(b)
	_, pairs, err := s.arctic.Preset.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(pairs, s.arctic.Config); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineGPU(b *testing.B) {
	s := getState(b)
	_, pairs, err := s.arctic.Preset.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.arctic.Config
	cfg.Engine.Name = locassm.EngineGPU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(pairs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalAssemblyCPU / GPU time the core module standalone on the
// arcticsynth workload (the paper's standalone comparison).
func BenchmarkLocalAssemblyCPU(b *testing.B) {
	s := getState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locassm.RunCPU(s.arcticRes.LAWorkload, s.arctic.Config.Engine.Config, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUTableBuild isolates Algorithm 1 on the host flat-table
// engine: the workload's read qualities all sit below the cutoff, so every
// walk dies at its first probe and the run is dominated by table builds
// and k-mer inserts.
func BenchmarkCPUTableBuild(b *testing.B) {
	s := getState(b)
	ctgs := cloneWorkload(s.arcticRes.LAWorkload)
	for _, c := range ctgs {
		for _, rs := range [][]dna.Read{c.LeftReads, c.RightReads} {
			for i := range rs {
				for j := range rs[i].Qual {
					rs[i].Qual[j] = dna.QualChar(5)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locassm.RunCPU(ctgs, s.arctic.Config.Engine.Config, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUWalk emphasizes Algorithm 2: few reads per contig (small
// tables) but full-length walks, so lookup/visited probing dominates.
func BenchmarkCPUWalk(b *testing.B) {
	s := getState(b)
	ctgs := cloneWorkload(s.arcticRes.LAWorkload)
	const keep = 4
	for _, c := range ctgs {
		if len(c.LeftReads) > keep {
			c.LeftReads = c.LeftReads[:keep]
		}
		if len(c.RightReads) > keep {
			c.RightReads = c.RightReads[:keep]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locassm.RunCPU(ctgs, s.arctic.Config.Engine.Config, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// cloneWorkload deep-copies contigs and reads so a benchmark can reshape
// them without corrupting the shared state.
func cloneWorkload(ctgs []*locassm.CtgWithReads) []*locassm.CtgWithReads {
	out := make([]*locassm.CtgWithReads, len(ctgs))
	for i, c := range ctgs {
		cc := &locassm.CtgWithReads{
			ID:    c.ID,
			Seq:   append([]byte(nil), c.Seq...),
			Depth: c.Depth,
		}
		cc.LeftReads = make([]dna.Read, len(c.LeftReads))
		for j := range c.LeftReads {
			cc.LeftReads[j] = c.LeftReads[j].Clone()
		}
		cc.RightReads = make([]dna.Read, len(c.RightReads))
		for j := range c.RightReads {
			cc.RightReads[j] = c.RightReads[j].Clone()
		}
		out[i] = cc
	}
	return out
}

func BenchmarkLocalAssemblyGPUv2(b *testing.B) {
	s := getState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.ModelFromWorkload(s.arcticRes.LAWorkload, s.arctic.Config.Engine.Config); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureSweepGPU times one full modeled-GPU figure sweep: the
// v1+v2 roofline kernel re-execution behind Figs 8-10 plus a warp-per-table
// driver run — the warp-interpretation wall-clock that dominates the figure
// suite (ROADMAP item 4). This is the headline series of the BENCH_*.json
// perf trajectory.
func BenchmarkFigureSweepGPU(b *testing.B) {
	s := getState(b)
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	d, err := locassm.NewDriver(dev, locassm.GPUConfig{
		Config:       s.arctic.Config.Engine.Config,
		WarpPerTable: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunRoofline(s.arcticRes.LAWorkload, s.arctic.Config.Engine.Config, 2*s.f2); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(s.arcticRes.LAWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriverStaging times the GPU driver end to end on the
// arcticsynth workload in both modes: "sequential" is the seed's
// one-batch-at-a-time schedule, "pipelined" the staged pack → launch →
// unpack pipeline with both sides in flight (identical results and modeled
// times by construction; the difference is host wall time).
func BenchmarkDriverStaging(b *testing.B) {
	s := getState(b)
	for _, bc := range []struct {
		name string
		mode locassm.DriverMode
	}{{"sequential", locassm.ModeSequential}, {"pipelined", locassm.ModePipelined}} {
		b.Run(bc.name, func(b *testing.B) {
			dev := simt.NewDevice(simt.V100())
			cfg := locassm.GPUConfig{
				Config:       s.arctic.Config.Engine.Config,
				WarpPerTable: true,
				Mode:         bc.mode,
			}
			d, err := locassm.NewDriver(dev, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(s.arcticRes.LAWorkload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
