package report

import (
	"bytes"
	"testing"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/ledger/ledgertest"
	"mhm2sim/internal/simt"
)

// goldenReport is the report of one fixed run with every optional section present: GPU
// kernels, a budget-mode k-mer count, and an elastic, faulted dist report.
func goldenReport() *Report {
	res := fakeResult()
	res.Timings.Wall[0], res.Timings.Wall[3] = 7*time.Millisecond, 11*time.Millisecond
	res.Work.GPUKernels = []simt.KernelResult{{}, {}, {}}
	res.Work.GPUKernelTime, res.Work.GPUTransferTime = clock.Device(900*time.Microsecond), clock.Device(40*time.Microsecond)
	res.Work.CommBytes, res.Work.CommMsgs = 4096, 12
	res.Work.KmerBudget = gpucount.BudgetStats{
		Configured: 8 << 20, Effective: 4 << 20,
		Passes: 6, PlannedPasses: 3, SpillPasses: 3, SpillReplans: 1, OOMReplans: 1,
		FilteredSingletons: 1234, Inserted: 100, FPInserted: 5,
		TableBytes: 3 << 20, BloomBytes: 1 << 20, Kernels: 9, KernelTime: clock.Device(2 * time.Millisecond),
	}
	rep := &dist.Report{
		Ranks: 2, Capacity: 3, Rounds: 2,
		ShardPolicy: dist.ShardComponent, Components: []int{5, 4},
		ComponentPassTime: 300 * time.Microsecond,
		Wall:              clock.Machine(10 * time.Millisecond), CommTime: clock.Fabric(2 * time.Millisecond),
		PerRank: []dist.RankStats{
			{Rank: 0, Busy: clock.Machine(6 * time.Millisecond), Comm: clock.Fabric(time.Millisecond), Idle: clock.Machine(3 * time.Millisecond),
				BytesSent: 2048, BytesRecv: 1024, Msgs: 6, PCIeH2D: 100, PCIeD2H: 50,
				Kernels: 4, Contigs: 7, Alive: true, EvictedRound: -1, JoinedRound: -1},
			{Rank: 1, Busy: clock.Machine(5 * time.Millisecond), Comm: clock.Fabric(2 * time.Millisecond), Idle: clock.Machine(3 * time.Millisecond),
				BytesSent: 1024, BytesRecv: 2048, Msgs: 4, Kernels: 3, Contigs: 5,
				Alive: false, EvictedRound: 1, JoinedRound: -1, FailedAttempts: 1},
			{Rank: 2, Busy: clock.Machine(2 * time.Millisecond), BytesSent: 1024, BytesRecv: 1024, Msgs: 2,
				Kernels: 1, Contigs: 2, Alive: true, EvictedRound: -1, JoinedRound: 1},
		},
		Stages: []dist.StageTraffic{{
			Stage: "read exchange k=21", Sent: []int64{2048, 1024, 1024}, Recv: []int64{1024, 2048, 1024},
			Msgs: []int64{6, 4, 2}, LocalBytes: []int64{512, 256, 0},
			Time: clock.Fabric(2 * time.Millisecond), Retries: 1, RetryTime: clock.Fabric(500 * time.Microsecond),
		}},
		Faults: "drop x1@ex1; oom r1@round0",
		Recovery: dist.RecoveryStats{
			ExchangeRetries: 1, RetryTime: clock.Fabric(500 * time.Microsecond), Evictions: 1, RecoveredBytes: 777,
			DeviceFallbacks: 2, BatchResplits: 3, Stragglers: 4, OOMReplans: 1, SpillPasses: 3,
		},
		Elasticity: dist.ElasticityStats{
			Epochs: 3, Joins: 1, EpochLive: []int{2, 3, 2}, Steals: 2, StolenBatches: 5,
			StolenBytes: 9000, RebalancedBytes: 1200,
			NoStealWall: clock.Machine(9 * time.Millisecond), StealWall: clock.Machine(8 * time.Millisecond),
		},
	}
	return Build(res, rep)
}

// TestReportGolden pins the v1 encoding of every section byte for byte
// (recorded before report.Dist pointed at the dist stats structs), so a
// renamed, reordered or dropped field cannot pass unnoticed.
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	if err := goldenReport().Encode(&got); err != nil {
		t.Fatal(err)
	}
	ledgertest.Golden(t, "testdata/report.golden.json", got.String())
}
