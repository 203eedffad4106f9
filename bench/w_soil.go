package main

import (
	"bytes"
	"fmt"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// reference assembles the input once through another path and returns the
// digest every measured op must reproduce, with the host seconds it took.
func (r *run) reference(fastq []byte, cfg pipeline.Config) (string, float64, error) {
	pairs, err := dna.ReadInterleavedPairs(bytes.NewReader(fastq))
	if err != nil {
		return "", 0, err
	}
	var res *pipeline.Result
	s, err := r.rec.do("reference.pipeline.run", "reference", -1, func(int) (err error) {
		res, err = pipeline.Run(pairs, cfg)
		return err
	})
	if err != nil {
		return "", 0, fmt.Errorf("reference run: %w", err)
	}
	d, err := fastaDigest(res)
	return d, s, err
}

// runDist8 assembles a soil-shaped community on eight simulated GPU ranks
// with component sharding and work stealing.
func runDist8(r *run) error {
	var in *input
	if err := r.timeSetup(func() (err error) {
		in, err = communities[wDist].build(r.seed)
		return err
	}, nil); err != nil {
		return err
	}
	if err := r.useInput(in, wDist+".fastq"); err != nil {
		return err
	}
	dcfg := dist.DefaultConfig(8)
	dcfg.ShardPolicy = dist.ShardComponent
	dcfg.Pipeline = r.pipelineConfig(21, 33)

	// Any rank count must reproduce the single-rank gpu-engine assembly.
	single := dcfg.Pipeline
	single.Engine.Name = locassm.EngineGPU
	want, singleS, err := r.reference(in.fastq, single)
	if err != nil {
		return err
	}

	var last assembly
	op := r.assembleOp(in.fastq, "dist.run", &last,
		func(pairs []dna.PairedRead, obs pipeline.Observer) (*pipeline.Result, *dist.Report, error) {
			c := dcfg
			c.Pipeline.Observer = obs
			return dist.Run(pairs, c)
		})
	r.measure(op, want)
	if last.rep == nil {
		return fmt.Errorf("no op completed")
	}
	if err := r.assemblyQuality(&last, in); err != nil {
		return err
	}
	rep, work := last.rep, &last.res.Work
	r.set("model_device_s", (work.GPUKernelTime + work.GPUTransferTime).Seconds())
	r.set("model_dist_wall_s", rep.Wall.Seconds())
	r.set("remote_mb", float64(rep.RemoteBytes())/1e6)
	if !r.trace {
		return nil
	}

	if runs := r.samples["dist.host_wall_s"]; len(runs) > 0 { // none when every traced op failed
		r.set("dist.host_overhead_s", median(runs)-singleS)
		r.logf("dist.host_overhead_s is dist.Run minus %.3f s for pipeline.Run on the gpu engine", singleS)
	}
	r.set("dist.model_comm_s", rep.CommTime.Seconds())
	r.set("dist.model_efficiency", rep.Efficiency())
	r.set("dist.local_bytes", float64(rep.LocalBytes()))
	r.set("dist.locality_pct", 100*rep.Locality())
	var msgs int64
	for i := range rep.Stages {
		msgs += rep.Stages[i].TotalMsgs()
	}
	r.set("dist.msgs", float64(msgs))
	comps := 0
	for _, c := range rep.Components {
		comps += c
	}
	r.set("dist.components", float64(comps))
	r.set("dist.component_pass_s", rep.ComponentPassTime.Seconds())
	r.set("dist.stolen_batches", float64(rep.Elasticity.StolenBatches))
	r.set("dist.steal_model_speedup", rep.Elasticity.Speedup())
	var busyMax, busySum float64
	for _, rs := range rep.PerRank {
		b := rs.Busy.Seconds()
		busySum += b
		if b > busyMax {
			busyMax = b
		}
	}
	r.set("dist.rank_busy_max_over_mean", busyMax/(busySum/float64(len(rep.PerRank))))

	// The fabric model alone: one all-to-all over a fixed 8×8 matrix.
	fab, err := dist.NewFabric(8, dist.DefaultFabricConfig())
	if err != nil {
		return err
	}
	matrix := make([][]int64, 8)
	for i := range matrix {
		matrix[i] = make([]int64, 8)
		for j := range matrix[i] {
			matrix[i][j] = int64(64<<10 + 1024*(i*8+j))
		}
	}
	const exchanges = 2000
	s := r.probe("dist.exchange", func() error {
		for i := 0; i < exchanges; i++ {
			if _, err := fab.Exchange("probe", matrix); err != nil {
				return err
			}
		}
		return nil
	})
	r.set("dist.exchange_us", s/exchanges*1e6)

	// One run under a converging fault and membership schedule: a rank
	// crash, two stragglers, a dropped exchange, a lost device, and two
	// ranks joining at round 1. It must reproduce the fault-free assembly
	// byte for byte.
	chaos := dcfg
	chaos.Elastic = "join@r1:2"
	chaos.Faults, err = faults.NewPlan("rank-crash=1,straggler=2,drop=1,oom=1", r.seed, 8, len(dcfg.Pipeline.Rounds))
	if err != nil {
		return err
	}
	var chaosLast assembly
	chaosOp := r.assembleOp(in.fastq, "dist.run", &chaosLast,
		func(pairs []dna.PairedRead, _ pipeline.Observer) (*pipeline.Result, *dist.Report, error) {
			return dist.Run(pairs, chaos)
		})
	if s := r.observe(chaosOp, nil, "chaos", want); !s.ok {
		r.fail("the chaos run did not reproduce the fault-free assembly")
		return r.probeErr
	}
	r.set("dist.chaos_model_wall_s", chaosLast.rep.Wall.Seconds())
	r.set("dist.chaos_exchange_retries", float64(chaosLast.rep.Recovery.ExchangeRetries))
	r.set("dist.chaos_device_fallbacks", float64(chaosLast.rep.Recovery.DeviceFallbacks))
	return r.probeErr
}

// budgetBytes is soil_budget's device memory budget for k-mer analysis,
// about a third of what the unbounded table of this input needs, so that
// counting takes six or more partitioned passes.
const budgetBytes = 12 << 20

// runBudget assembles under a memory budget: the Bloom prefilter and the
// multi-pass spill of internal/gpucount replace the host map.
func runBudget(r *run) error {
	var in *input
	if err := r.timeSetup(func() (err error) {
		in, err = communities[wBudget].build(r.seed)
		return err
	}, nil); err != nil {
		return err
	}
	if err := r.useInput(in, wBudget+".fastq"); err != nil {
		return err
	}
	cfg := r.pipelineConfig(21, 33)
	// The budget must not change the assembly.
	want, _, err := r.reference(in.fastq, cfg)
	if err != nil {
		return err
	}
	cfg.MemBudget = budgetBytes
	var last assembly
	op := r.assembleOp(in.fastq, "pipeline.run", &last,
		func(pairs []dna.PairedRead, obs pipeline.Observer) (*pipeline.Result, *dist.Report, error) {
			c := cfg
			c.Observer = obs
			res, err := pipeline.Run(pairs, c)
			return res, nil, err
		})
	r.measure(op, want)
	if last.res == nil {
		return fmt.Errorf("no op completed")
	}
	if err := r.assemblyQuality(&last, in); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}

	// Direct calls on the reads: unbounded device counting at k = 21 (its
	// table keys are one word), budget counting and the host map at k = 33,
	// the multi-word round.
	_, seqs, err := in.reads()
	if err != nil {
		return err
	}
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	var kres simt.KernelResult
	s := r.probe("gpucount.count", func() (err error) {
		_, kres, err = gpucount.Count(dev, seqs, 21)
		return err
	})
	r.set("gpucount.count_host_s", s)
	r.set("gpucount.count_model_s", kres.Time.Seconds())

	dev.FreeAll()
	var bs gpucount.BudgetStats
	budgetS := r.probe("gpucount.budget", func() (err error) {
		_, bs, err = gpucount.CountBudget(dev, seqs, 33, gpucount.BudgetConfig{MemBudget: budgetBytes, MinCount: cfg.MinCount})
		return err
	})
	hostS := r.probe("dbg.count_k33", func() error {
		_, err := dbg.Count(seqs, dbg.Config{K: 33, MinCount: cfg.MinCount, Workers: r.workers})
		return err
	})
	r.logf("budget counting %.3f s against %.3f s for dbg.Count on the same reads", budgetS, hostS)
	r.set("gpucount.budget_host_s", budgetS)
	r.set("gpucount.budget_model_s", bs.KernelTime.Seconds())
	r.set("gpucount.budget_over_unbounded", budgetS/hostS)
	// The pass and filter counts are those of the whole assembly (both
	// rounds, contigs of round one included), not of the probe.
	kb := last.res.Work.KmerBudget
	r.set("gpucount.budget_passes", float64(kb.Passes))
	r.set("gpucount.budget_filtered_singletons", float64(kb.FilteredSingletons))
	r.set("gpucount.budget_fp_rate", kb.FPRate())
	return r.probeErr
}
