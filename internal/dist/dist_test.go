package dist

import (
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/synth"
)

// smallPreset mirrors the pipeline tests' reduced arcticsynth community so a
// full distributed run stays fast.
func smallPreset() synth.Preset {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 3
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 6_000, 9_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 14
	p.Reads.ErrorRate = 0.002
	return p
}

func buildPairs(t testing.TB) []dna.PairedRead {
	t.Helper()
	_, pairs, err := smallPreset().Build()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func testDistConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.Pipeline.Rounds = []int{21, 33}
	return cfg
}

func runDist(t *testing.T, ranks int) (*pipeline.Result, *Report) {
	t.Helper()
	res, rep, err := Run(buildPairs(t), testDistConfig(ranks))
	if err != nil {
		t.Fatalf("dist.Run ranks=%d: %v", ranks, err)
	}
	return res, rep
}

// TestDistMatchesSingleRank is the core determinism guarantee: for any rank
// count the distributed run produces bit-identical contigs, scaffolds, and
// kernel launch lists to the single-rank run. Virtual shards — not ranks —
// are the unit of batch planning, so changing N only re-deals the same
// batches onto different devices.
func TestDistMatchesSingleRank(t *testing.T) {
	base, _ := runDist(t, 1)
	if len(base.Contigs) == 0 || len(base.Work.GPUKernels) == 0 {
		t.Fatalf("baseline run degenerate: %d contigs, %d kernels",
			len(base.Contigs), len(base.Work.GPUKernels))
	}

	for _, n := range []int{2, 3, 8} {
		res, rep := runDist(t, n)
		if !reflect.DeepEqual(res.Contigs, base.Contigs) {
			t.Errorf("ranks=%d: contigs differ from single-rank run", n)
		}
		if !reflect.DeepEqual(res.Scaffolds, base.Scaffolds) {
			t.Errorf("ranks=%d: scaffolds differ from single-rank run", n)
		}
		if !reflect.DeepEqual(res.Work.GPUKernels, base.Work.GPUKernels) {
			t.Errorf("ranks=%d: kernel launch list differs from single-rank run (%d vs %d launches)",
				n, len(res.Work.GPUKernels), len(base.Work.GPUKernels))
		}
		if res.Work.GPUKernelTime != base.Work.GPUKernelTime {
			t.Errorf("ranks=%d: kernel time %v ≠ %v", n, res.Work.GPUKernelTime, base.Work.GPUKernelTime)
		}
		if rep.CommTime <= 0 {
			t.Errorf("ranks=%d: no modeled comm time", n)
		}
		if res.Work.CommBytes <= 0 || res.Work.CommMsgs <= 0 {
			t.Errorf("ranks=%d: comm accounting empty: %d bytes, %d msgs",
				n, res.Work.CommBytes, res.Work.CommMsgs)
		}
		if res.Work.CommTime != rep.CommTime {
			t.Errorf("ranks=%d: work comm %v ≠ report comm %v", n, res.Work.CommTime, rep.CommTime)
		}
	}
}

// TestDistSingleRankAllLocal: with one rank every exchange is rank-local, so
// the fabric models zero network traffic and zero comm time.
func TestDistSingleRankAllLocal(t *testing.T) {
	res, rep := runDist(t, 1)
	if res.Work.CommBytes != 0 || res.Work.CommMsgs != 0 {
		t.Errorf("single rank moved %d bytes / %d msgs over the network",
			res.Work.CommBytes, res.Work.CommMsgs)
	}
	if rep.CommTime != 0 {
		t.Errorf("single rank modeled comm time %v", rep.CommTime)
	}
	if res.Work.CommTime != 0 {
		t.Errorf("single rank work comm %v", res.Work.CommTime)
	}
}

// TestDistMatchesPlainPipeline: the distributed contigs and scaffolds also
// match the undistributed pipeline (CPU local assembly) on the same input —
// sharding must not change assembly results, only where they are computed.
func TestDistMatchesPlainPipeline(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Rounds = []int{21, 33}
	plain, err := pipeline.Run(buildPairs(t), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runDist(t, 3)
	if !reflect.DeepEqual(res.Contigs, plain.Contigs) {
		t.Error("distributed contigs differ from plain pipeline")
	}
	if !reflect.DeepEqual(res.Scaffolds, plain.Scaffolds) {
		t.Error("distributed scaffolds differ from plain pipeline")
	}
}

// TestDistReport sanity-checks the strong-scaling breakdown.
func TestDistReport(t *testing.T) {
	_, rep := runDist(t, 4)
	if rep.Ranks != 4 || rep.VirtualShards != DefaultVirtualShards || rep.Rounds != 2 {
		t.Fatalf("report header: %d ranks, %d shards, %d rounds",
			rep.Ranks, rep.VirtualShards, rep.Rounds)
	}
	if rep.Wall <= 0 || rep.Wall < clock.Machine(rep.CommTime) {
		t.Errorf("wall %v inconsistent with comm %v", rep.Wall, rep.CommTime)
	}
	eff := rep.Efficiency()
	if eff <= 0 || eff > 1 {
		t.Errorf("efficiency %f out of (0,1]", eff)
	}
	var busy, kernels, ctgs int
	for _, rs := range rep.PerRank {
		if rs.Busy > 0 {
			busy++
		}
		if total := rs.Busy + clock.Machine(rs.Comm) + rs.Idle; total > rep.Wall {
			t.Errorf("rank %d: busy+comm+idle %v exceeds wall %v", rs.Rank, total, rep.Wall)
		}
		if rs.PCIeH2D <= 0 || rs.PCIeD2H <= 0 {
			t.Errorf("rank %d: no PCIe traffic (%d/%d)", rs.Rank, rs.PCIeH2D, rs.PCIeD2H)
		}
		kernels += rs.Kernels
		ctgs += rs.Contigs
	}
	if busy == 0 {
		t.Error("no rank recorded busy time")
	}
	if kernels == 0 {
		t.Error("no kernels attributed to any rank")
	}
	if ctgs == 0 {
		t.Error("no contigs owned by any rank")
	}
	if len(rep.Stages) < 2 {
		t.Errorf("only %d fabric stages recorded", len(rep.Stages))
	}

	s := rep.String()
	for _, want := range []string{"4 ranks", "busy", "read exchange k=21", "contig allgather k=33"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

// TestDistConfigValidation covers rejection paths of the distributed config.
func TestDistConfigValidation(t *testing.T) {
	if _, _, err := Run(nil, testDistConfig(0)); err == nil {
		t.Error("0 ranks accepted")
	}
	cfg := testDistConfig(4)
	cfg.VirtualShards = 2
	if _, _, err := Run(nil, cfg); err == nil {
		t.Error("fewer shards than ranks accepted")
	}
	cfg = testDistConfig(2)
	cfg.Fabric.BandwidthGBps = -1
	if _, _, err := Run(nil, cfg); err == nil {
		t.Error("bad fabric accepted")
	}
	cfg = testDistConfig(2)
	cfg.Pipeline.Rounds = nil
	if _, _, err := Run(nil, cfg); err == nil {
		t.Error("bad pipeline config accepted")
	}
}
