package dist

import (
	"reflect"
	"strings"
	"sync"
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

// buildPairs is smallPreset's reads, built once per test binary. Runs never
// write to their input.
func buildPairs(t testing.TB) []dna.PairedRead {
	t.Helper()
	smallPairs.once.Do(func() { _, smallPairs.pairs, smallPairs.err = smallPreset().Build() })
	if smallPairs.err != nil {
		t.Fatal(smallPairs.err)
	}
	return smallPairs.pairs
}

var smallPairs struct {
	once  sync.Once
	pairs []dna.PairedRead
	err   error
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

// TestDistSingleRankAllLocal: with one rank every exchange is rank-local, so
// the fabric models zero network traffic and zero comm time.
func TestDistSingleRankAllLocal(t *testing.T) {
	_, _, rep := baseline(t)
	if bytes, msgs := commTotals(rep); bytes != 0 || msgs != 0 {
		t.Errorf("single rank moved %d bytes / %d msgs over the network", bytes, msgs)
	}
	if rep.CommTime != 0 {
		t.Errorf("single rank modeled comm time %v", rep.CommTime)
	}
}

// commTotals is the network bytes and messages of every exchange in rep:
// what report.Build writes as comm_bytes and comm_msgs.
func commTotals(rep *Report) (bytes, msgs int64) {
	for i := range rep.Stages {
		msgs += rep.Stages[i].TotalMsgs()
	}
	return rep.RemoteBytes(), msgs
}

// TestDistMatchesPlainPipeline: the distributed contigs and scaffolds also
// match the undistributed pipeline (CPU local assembly) on the same input —
// sharding must not change assembly results, only where they are computed.
// Every parity row matches the single-rank run, so every row matches this.
func TestDistMatchesPlainPipeline(t *testing.T) {
	pairs, res, _ := baseline(t)
	pcfg := pipeline.DefaultConfig()
	pcfg.Rounds = []int{21, 33}
	plain, err := pipeline.Run(pairs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if rep.Ranks != 4 || rep.Rounds != 2 {
		t.Fatalf("report header: %d ranks, %d rounds", rep.Ranks, rep.Rounds)
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
	if _, _, err := Run(nil, testDistConfig(DefaultVirtualShards+1)); err == nil {
		t.Error("fewer shards than ranks accepted")
	}
	cfg := testDistConfig(2)
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
