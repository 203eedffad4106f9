package dist

import (
	"fmt"
	"strings"
	"time"

	"mhm2sim/internal/clock"
)

// RankStats is one rank's share of a distributed run. The JSON names are the
// v1 report's dist.per_rank rows (internal/report); durations encode as
// nanoseconds.
type RankStats struct {
	Rank int `json:"rank"`
	// Alive is false for ranks evicted by an injected crash (or elastic
	// leave) and for join slots never admitted. JoinedRound is the 0-based
	// round an elastic rank joined at (-1 for initial members).
	Alive       bool `json:"alive"`
	JoinedRound int  `json:"joined_round"`
	// Busy is the rank's modeled compute on its shards, own and stolen:
	// device time (kernels + PCIe) on a device rank, CPU-model time on a
	// host rank or after a fallback to the host. Comm is its modeled time
	// inside fabric exchanges; Idle the rest of the modeled wall clock
	// (waiting on the slowest rank at collectives).
	Busy clock.Machine `json:"busy_ns"`
	Comm clock.Fabric  `json:"comm_ns"`
	Idle clock.Machine `json:"idle_ns"`
	// BytesSent/BytesRecv are network bytes; Msgs aggregated messages.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	Msgs      int64 `json:"msgs"`
	// PCIeH2D/PCIeD2H are the rank's device transfer totals over this run.
	PCIeH2D int64 `json:"pcie_h2d_bytes"`
	PCIeD2H int64 `json:"pcie_d2h_bytes"`
	// Kernels counts kernel launches on the rank's device; Contigs the
	// contigs the rank owned in the final round.
	Kernels int `json:"kernels"`
	Contigs int `json:"contigs"`
	// EvictedRound is the 0-based round of the rank's eviction (-1 while
	// alive or never admitted); FailedAttempts counts the failed collective
	// exchange attempts the rank observed while alive.
	EvictedRound   int `json:"-"`
	FailedAttempts int `json:"-"`
}

// RecoveryStats summarizes the fault-recovery work of a run. All counters
// are zero for a fault-free run. The JSON names are the v1 report's
// dist.recovery section (internal/report); durations encode as nanoseconds.
type RecoveryStats struct {
	// ExchangeRetries counts failed exchange attempts recovered by retry;
	// RetryTime is the modeled time they cost (timeouts, full corrupt
	// transfers, and backoff).
	ExchangeRetries int          `json:"exchange_retries"`
	RetryTime       clock.Fabric `json:"retry_time_ns"`
	// Evictions counts ranks removed by injected crashes; RecoveredBytes
	// the contig bytes whose ownership moved to a survivor.
	Evictions      int   `json:"evictions"`
	RecoveredBytes int64 `json:"recovered_bytes"`
	// DeviceFallbacks counts ranks that degraded to the host flat-table
	// engine after losing their device mid-round.
	DeviceFallbacks int `json:"device_fallbacks"`
	// BatchResplits counts batches the drivers split in half and retried
	// after a recoverable kernel fault.
	BatchResplits int `json:"batch_resplits"`
	// Stragglers counts injected per-rank compute slowdowns applied.
	Stragglers int `json:"stragglers"`
	// OOMReplans counts DeviceOOM events a budget-mode run absorbed by
	// shrinking the counting budget and re-planning the pass schedule —
	// the graceful-degradation replacement for DeviceFallbacks.
	// SpillPasses counts the extra counting passes that degradation
	// (budget shrinks and in-run spill re-plans) cost.
	OOMReplans  int `json:"oom_replans,omitempty"`
	SpillPasses int `json:"spill_passes,omitempty"`
}

// Any reports whether any recovery machinery fired.
func (rs *RecoveryStats) Any() bool {
	return rs.ExchangeRetries != 0 || rs.Evictions != 0 || rs.DeviceFallbacks != 0 ||
		rs.BatchResplits != 0 || rs.Stragglers != 0 || rs.OOMReplans != 0
}

// ElasticityStats summarizes the membership and work-stealing activity of a
// run. Epochs is always ≥ 1 (the initial membership is epoch 0); everything
// else is zero for a static, balanced run. The JSON names are the v1
// report's dist.elasticity section.
type ElasticityStats struct {
	// Epochs counts membership versions (1 + joins + evictions); Joins the
	// ranks admitted mid-run; EpochLive the live-rank count at each epoch.
	Epochs    int   `json:"epochs"`
	Joins     int   `json:"joins"`
	EpochLive []int `json:"epoch_live"`
	// Steals counts per-round victim→thief flows; StolenBatches the
	// tail batches (virtual shards) that moved through them; StolenBytes
	// their modeled payload.
	Steals        int   `json:"steals"`
	StolenBatches int   `json:"stolen_batches"`
	StolenBytes   int64 `json:"stolen_bytes,omitempty"`
	// RebalancedBytes is the contig payload the join bootstrap exchanges
	// shipped to re-dealt owners.
	RebalancedBytes int64 `json:"rebalanced_bytes,omitempty"`
	// NoStealWall / StealWall are the run's summed round makespans without
	// and with stealing, computed in the same pass; their ratio is the
	// stealing speedup of the modeled compute wall.
	NoStealWall clock.Machine `json:"nosteal_wall_ns"`
	StealWall   clock.Machine `json:"steal_wall_ns"`
}

// Any reports whether the run was elastic or stole any work.
func (es *ElasticityStats) Any() bool {
	return es.Epochs > 1 || es.Steals != 0
}

// Speedup is the modeled compute-makespan ratio no-steal / steal — 1.0 for
// a balanced run, > 1 when stealing compressed the round walls.
func (es *ElasticityStats) Speedup() float64 {
	if es.StealWall <= 0 {
		return 1
	}
	return float64(es.NoStealWall) / float64(es.StealWall)
}

// Report is the strong-scaling breakdown of one distributed run (the
// Fig 9-style busy/comm/idle view the paper uses for scaling studies).
type Report struct {
	// Ranks is the initial rank count; Capacity the rank ID ceiling after
	// scheduled joins (equal to Ranks for a static run). PerRank has
	// Capacity entries.
	Ranks    int
	Capacity int
	Rounds   int
	// ShardPolicy is the contig → shard map the run used ("hash" or
	// "component").
	ShardPolicy string
	// Components is the per-round connected-component count (empty under
	// the hash policy, which never runs the pass).
	Components []int
	// ComponentPassTime is the accumulated wall time of the per-round
	// connected-components passes (zero under the hash policy).
	ComponentPassTime time.Duration
	// Wall is the modeled distributed wall clock: per-round slowest-rank
	// compute plus every collective exchange.
	Wall clock.Machine
	// CommTime is the modeled time of all fabric exchanges.
	CommTime clock.Fabric
	PerRank  []RankStats
	// Stages holds every fabric exchange in execution order.
	Stages []StageTraffic
	// Faults describes the injected fault schedule ("no faults" without
	// one); Recovery the recovery work it triggered; Elasticity the
	// membership and work-stealing activity.
	Faults     string
	Recovery   RecoveryStats
	Elasticity ElasticityStats
}

// report assembles the Report after the pipeline has finished.
func (rt *runtime) report() *Report {
	rep := &Report{
		Ranks:       rt.cfg.Ranks,
		Capacity:    rt.mem.Capacity(),
		Rounds:      rt.rounds,
		ShardPolicy: rt.cfg.ShardPolicy,
		CommTime:    rt.fabric.TotalTime(),
		Stages:      rt.fabric.Stages(),
		Faults:      rt.plan.String(),
		Recovery:    rt.rec,
		Elasticity:  rt.elastic,
	}
	rep.Components, rep.ComponentPassTime = rt.policy.components()
	rep.Elasticity.Epochs = rt.mem.Epoch() + 1
	rep.Elasticity.EpochLive = rt.mem.EpochLiveCounts()
	rep.Recovery.ExchangeRetries, rep.Recovery.RetryTime = rt.fabric.Retries()
	rep.Wall = rt.compWall + clock.Machine(rep.CommTime) // dist's round wall
	rep.PerRank = make([]RankStats, rep.Capacity)
	for r, rk := range rt.ranks {
		rs := RankStats{
			Rank:           r,
			Alive:          rt.mem.Alive(r),
			JoinedRound:    rt.mem.JoinedRound(r),
			Busy:           rk.busy,
			Kernels:        rk.kernels,
			Contigs:        rk.owned,
			EvictedRound:   rt.mem.EvictedRound(r),
			FailedAttempts: rt.fabric.FailedAttempts(r),
		}
		rs.Comm, rs.BytesSent, rs.BytesRecv, rs.Msgs = rt.fabric.RankTotals(r)
		if rk.dev != nil {
			h2d, d2h := rk.dev.CumTraffic()
			rs.PCIeH2D, rs.PCIeD2H = h2d-rk.h2d0, d2h-rk.d2h0
		}
		if idle := rep.Wall - rs.Busy - clock.Machine(rs.Comm); idle > 0 { // rank idle
			rs.Idle = idle
		}
		rep.PerRank[r] = rs
	}
	return rep
}

// Efficiency is the parallel efficiency of the modeled compute:
// Σ busy / (ranks × wall), the rank count being the capacity for elastic
// runs. 1.0 means every rank computed the whole time.
func (r *Report) Efficiency() float64 {
	n := r.Ranks
	if r.Capacity > n {
		n = r.Capacity
	}
	if r.Wall <= 0 || n == 0 {
		return 0
	}
	var busy clock.Machine
	for _, rs := range r.PerRank {
		busy += rs.Busy
	}
	return float64(busy) / (float64(r.Wall) * float64(n))
}

// RemoteBytes, LocalBytes, and Locality aggregate the local-vs-remote byte
// split across every fabric stage. Locality is the fraction of all moved
// bytes that stayed rank-local — the number component sharding exists to
// drive up.
func (r *Report) RemoteBytes() int64 {
	var n int64
	for i := range r.Stages {
		n += r.Stages[i].TotalBytes()
	}
	return n
}

// LocalBytes sums rank-local bytes across every fabric stage.
func (r *Report) LocalBytes() int64 {
	var n int64
	for i := range r.Stages {
		n += r.Stages[i].TotalLocalBytes()
	}
	return n
}

// Locality is the run-wide rank-local fraction of moved bytes, in [0,1].
func (r *Report) Locality() float64 {
	local, remote := r.LocalBytes(), r.RemoteBytes()
	if local+remote == 0 {
		return 1
	}
	return float64(local) / float64(local+remote)
}

// String renders the per-rank breakdown and per-stage fabric traffic.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "distributed run: %d ranks, %d virtual shards (%s), %d rounds; modeled wall %v (comm %v, efficiency %.1f%%)\n",
		r.Ranks, DefaultVirtualShards, r.ShardPolicy, r.Rounds, r.Wall.Round(time.Microsecond),
		r.CommTime.Round(time.Microsecond), 100*r.Efficiency())
	if r.ShardPolicy == ShardComponent {
		fmt.Fprintf(&b, "  components per round: %v (pass time %v)\n",
			r.Components, r.ComponentPassTime.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  %-5s %12s %12s %12s %10s %10s %6s %8s %7s\n",
		"rank", "busy", "comm", "idle", "sent", "recv", "msgs", "kernels", "ctgs")
	for _, rs := range r.PerRank {
		mark := ""
		if rs.JoinedRound >= 0 {
			mark = fmt.Sprintf("  (joined round %d)", rs.JoinedRound)
		}
		if !rs.Alive {
			if rs.EvictedRound >= 0 {
				mark = fmt.Sprintf("  (evicted round %d)", rs.EvictedRound)
			} else {
				mark = "  (never joined)"
			}
		}
		fmt.Fprintf(&b, "  %-5d %12v %12v %12v %10s %10s %6d %8d %7d%s\n",
			rs.Rank, rs.Busy.Round(time.Microsecond), rs.Comm.Round(time.Microsecond),
			rs.Idle.Round(time.Microsecond), fmtBytes(rs.BytesSent), fmtBytes(rs.BytesRecv),
			rs.Msgs, rs.Kernels, rs.Contigs, mark)
	}
	fmt.Fprintf(&b, "  fabric stages (remote / local, %% local):\n")
	for _, st := range r.Stages {
		retry := ""
		if st.Retries > 0 {
			retry = fmt.Sprintf("  (%d retries, +%v)", st.Retries, st.RetryTime.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "    %-24s %10s / %10s (%5.1f%% local) in %4d msgs, %v%s\n",
			st.Stage, fmtBytes(st.TotalBytes()), fmtBytes(st.TotalLocalBytes()),
			100*st.Locality(), st.TotalMsgs(), st.Time.Round(time.Microsecond), retry)
	}
	fmt.Fprintf(&b, "  traffic total: %s remote, %s local (%.1f%% local)\n",
		fmtBytes(r.RemoteBytes()), fmtBytes(r.LocalBytes()), 100*r.Locality())
	if r.Recovery.Any() {
		rec := r.Recovery
		fmt.Fprintf(&b, "  fault recovery (%s): %d exchange retries (+%v), %d evictions (%s re-dealt), %d device fallbacks, %d batch re-splits, %d stragglers\n",
			r.Faults, rec.ExchangeRetries, rec.RetryTime.Round(time.Microsecond),
			rec.Evictions, fmtBytes(rec.RecoveredBytes), rec.DeviceFallbacks,
			rec.BatchResplits, rec.Stragglers)
		if rec.OOMReplans > 0 {
			fmt.Fprintf(&b, "  memory-budget degradation: %d OOM events absorbed by re-planned spill (+%d passes)\n",
				rec.OOMReplans, rec.SpillPasses)
		}
	}
	if es := &r.Elasticity; es.Any() {
		fmt.Fprintf(&b, "  elasticity: %d epochs (live %v), %d joins (%s rebalanced), %d steals moved %d batches (%s) — compute wall %v vs %v no-steal (%.2fx)\n",
			es.Epochs, es.EpochLive, es.Joins, fmtBytes(es.RebalancedBytes),
			es.Steals, es.StolenBatches, fmtBytes(es.StolenBytes),
			es.StealWall.Round(time.Microsecond), es.NoStealWall.Round(time.Microsecond), es.Speedup())
	}
	return b.String()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
