package pipeline

import (
	"bytes"
	"testing"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/simt"
)

// TestGPUAlignmentMatchesCPU verifies the ADEPT-role kernel end to end:
// running the alignment stage's SW verification on the device must leave
// the assembly unchanged (scores are exact, so candidate sets are).
func TestGPUAlignmentMatchesCPU(t *testing.T) {
	pairs := buildPairs(t)

	cfg := testPipelineConfig()
	cfg.Rounds = []int{21}
	cpuRes, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	gcfg := cfg
	gcfg.UseGPUAln = true
	gpuRes, err := Run(pairs, gcfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(cpuRes.Contigs) != len(gpuRes.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(cpuRes.Contigs), len(gpuRes.Contigs))
	}
	diff := 0
	for i := range cpuRes.Contigs {
		if !bytes.Equal(cpuRes.Contigs[i].Seq, gpuRes.Contigs[i].Seq) {
			diff++
		}
	}
	// Scores are exact; span tie-breaks can differ in rare cases, but the
	// assemblies must be essentially identical.
	if diff > len(cpuRes.Contigs)/50 {
		t.Errorf("%d of %d contigs differ between CPU and GPU alignment", diff, len(cpuRes.Contigs))
	}
	if len(gpuRes.Work.AlnGPUKernels) == 0 || gpuRes.Work.AlnGPUKernelTime <= 0 {
		t.Error("aln kernel accounting missing")
	}
	if gpuRes.Timings.Wall[StageAlnKernel] <= 0 {
		t.Error("aln kernel stage time missing")
	}
}

// TestFullGPUPipeline runs both GPU modules together (alignment + local
// assembly), the configuration closest to the paper's GPU MetaHipMer2. Over
// three rounds the run draws two devices from its source: the engine's, and
// one for every round's alignment kernel.
func TestFullGPUPipeline(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.Rounds = []int{21, 33, 55}
	cfg.Engine.Name = locassm.EngineGPU
	cfg.UseGPUAln = true
	var drawn []*simt.Device
	cfg.Engine.Devices = func() (*simt.Device, error) {
		drawn = append(drawn, simt.NewDevice(simt.V100()))
		t.Cleanup(drawn[len(drawn)-1].Close)
		return drawn[len(drawn)-1], nil
	}
	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 || len(res.Scaffolds) == 0 {
		t.Fatal("full-GPU pipeline produced no assembly")
	}
	if len(res.Work.GPUKernels) == 0 || len(res.Work.AlnGPUKernels) != len(cfg.Rounds) {
		t.Errorf("kernel accounting incomplete: %d local-assembly kernels, %d aln kernels over %d rounds",
			len(res.Work.GPUKernels), len(res.Work.AlnGPUKernels), len(cfg.Rounds))
	}
	if len(drawn) != 2 {
		t.Errorf("the run drew %d devices, want 2", len(drawn))
	}
	for i, dev := range drawn {
		if h2d, _ := dev.CumTraffic(); h2d == 0 || dev.InUse() != 0 {
			t.Errorf("device %d: %d bytes moved, %d still in use", i, h2d, dev.InUse())
		}
	}
}
