package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/par"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// shardOutcome is one virtual shard's assembly output: the per-contig
// results plus the executing engine's unified accounting.
type shardOutcome struct {
	results []locassm.Result
	stats   locassm.Stats
	onGPU   bool
}

// Config parameterizes a distributed run.
type Config struct {
	// Ranks is the number of simulated ranks (processes), each owning one
	// device and a slice of the contigs and reads.
	Ranks int
	// ShardPolicy selects the contig → virtual-shard map: ShardHash
	// (default, "") hashes contig IDs; ShardComponent runs a per-round
	// connected-components pass and assigns whole de Bruijn components to
	// shards with LPT bin packing, turning most exchange and allgather
	// traffic rank-local. Either policy yields bit-identical contigs and
	// scaffolds for any rank count.
	ShardPolicy string
	// Fabric models the interconnect (zero value = DefaultFabricConfig).
	Fabric FabricConfig
	// Pipeline configures the underlying assembly pipeline. dist.Run
	// injects the runtime as its Engine.Name/Instance; the rest of the
	// resolved spec (Pipeline.EngineSpec: walk Config, driver GPU and
	// budget) configures every rank's engines, each on a device drawn from
	// Engine.Devices — at start for the initial ranks, at its join round for
	// a joiner — or on the host engine, whose workers are the process's
	// bound (Pipeline.Workers, 0 = GOMAXPROCS) spread over the rank slots.
	Pipeline pipeline.Config
	// CPUAssembly runs each rank's local assembly on the host flat-table
	// engine and draws it no device — the per-rank CPU baseline the
	// paper's speedups are measured against. Results are bit-identical to
	// the GPU path; only the Busy accounting (modeled host time instead of
	// kernel time) and the kernel lists (empty) change.
	CPUAssembly bool
	// Faults is an optional seeded fault schedule (nil = fault-free run).
	// The runtime consults it at round boundaries (rank crashes), before
	// launches (device faults, kernel aborts), and inside fabric exchanges
	// (drops, corruptions, latency spikes); any schedule that does not
	// exhaust the retry budgets yields bit-identical contigs and scaffolds
	// to the fault-free run.
	Faults *faults.Plan
	// Elastic is an optional membership schedule spec
	// ("join@r1:2,leave@r3:1", see faults.ParseElastic): joins admit fresh
	// ranks at round boundaries, leaves retire the highest-numbered live
	// rank. It merges with Faults into one plan; like any converging fault
	// schedule, every elastic schedule yields bit-identical contigs and
	// scaffolds to the fault-free single-rank run.
	Elastic string
}

// DefaultConfig returns a distributed configuration over the default
// pipeline.
func DefaultConfig(ranks int) Config {
	return Config{Ranks: ranks, Pipeline: pipeline.DefaultConfig()}.withDefaults()
}

// withDefaults fills zero-valued fields. The fabric defaults field by
// field, so a config that overrides only (say) the bandwidth still inherits
// the default latency, buffering, and retry budget instead of having the
// partial struct silently replaced wholesale.
func (c Config) withDefaults() Config {
	if c.ShardPolicy == "" {
		c.ShardPolicy = ShardHash
	}
	c.Fabric = c.Fabric.withDefaults()
	return c
}

// Validate checks the distributed configuration (after defaulting).
func (c *Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("dist: need ≥ 1 rank, got %d", c.Ranks)
	}
	if DefaultVirtualShards < c.Ranks {
		return fmt.Errorf("dist: %d virtual shards cannot cover %d ranks (ranks would idle)",
			DefaultVirtualShards, c.Ranks)
	}
	if c.ShardPolicy != ShardHash && c.ShardPolicy != ShardComponent {
		return fmt.Errorf("dist: unknown shard policy %q (%s|%s)",
			c.ShardPolicy, ShardHash, ShardComponent)
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	plan, err := c.effectivePlan()
	if err != nil {
		return err
	}
	if plan != nil {
		if err := plan.Validate(c.Ranks); err != nil {
			return err
		}
		if plan.Rounds != len(c.Pipeline.Rounds) {
			return fmt.Errorf("dist: fault plan built for %d rounds, run has %d",
				plan.Rounds, len(c.Pipeline.Rounds))
		}
	}
	return c.Pipeline.Validate()
}

// effectivePlan merges the Faults schedule with the parsed Elastic
// membership schedule into the single plan the runtime consumes. Nil when
// the run has neither.
func (c *Config) effectivePlan() (*faults.Plan, error) {
	plan := c.Faults
	if c.Elastic == "" {
		return plan, nil
	}
	ep, err := faults.ParseElastic(c.Elastic, c.Ranks, len(c.Pipeline.Rounds))
	if err != nil {
		return nil, err
	}
	return plan.Merge(ep)
}

// rank is one rank slot's record. The table is sized to the membership's
// capacity; slots of joins that have not fired hold the zero value.
type rank struct {
	dev *simt.Device // nil under CPUAssembly
	// h2d0/d2h0 are the device's lifetime PCIe odometer when it was attached:
	// the run's device source may hand out a device earlier jobs have used,
	// and the report wants this run's bytes only.
	h2d0, d2h0 int64
	deviceOK   bool          // still assembling on its device
	busy       clock.Machine // modeled busy time, own and stolen work
	kernels    int           // kernel launches
	owned      int           // contigs owned in the last round
	// Round scratch, written by the rank's own goroutine in assembleShards
	// and read after it has been waited for.
	fellBack bool
	err      error
}

// attachDevice draws rank r's device from the run's source and notes where
// its odometer stands; under CPUAssembly the rank gets none.
func (rt *runtime) attachDevice(r int) error {
	if rt.cfg.CPUAssembly {
		return nil
	}
	dev, err := rt.cfg.Pipeline.Engine.Devices()
	if err != nil {
		return fmt.Errorf("dist: no device for rank %d: %w", r, err)
	}
	rk := &rt.ranks[r]
	rk.dev, rk.deviceOK = dev, true
	rk.h2d0, rk.d2h0 = dev.CumTraffic()
	return nil
}

// runtime is the live state of one distributed run. It implements
// locassm.Engine: pipeline.Run hands it each round's contigs-with-reads
// and it performs the read exchange, the sharded concurrent local
// assembly (each rank running its own engine over its virtual shards),
// and the contig allgather.
type runtime struct {
	cfg    Config
	plan   *faults.Plan // Faults merged with the parsed Elastic schedule
	fabric *Fabric
	mem    *Membership // who is alive: read by the deal, the fabric, the policy
	policy shardPolicy
	inj    *faults.Injector
	ranks  []rank // one record per rank slot, up to capacity
	// release releases the run's device source, cfg.Pipeline.Engine.Devices:
	// the ranks' devices and the pipeline's GPU-alignment device.
	release func()
	ctx     context.Context // the run's; Assemble checks it before every phase

	// Accumulated across rounds (written only between concurrent phases).
	rec      RecoveryStats
	elastic  ElasticityStats
	compWall clock.Machine // Σ over rounds of the round makespans
	rounds   int
}

func newRuntime(cfg Config) (*runtime, error) {
	plan, err := cfg.effectivePlan()
	if err != nil {
		return nil, err
	}
	mem, err := NewMembership(cfg.Ranks, max(cfg.Ranks, plan.Capacity()), DefaultVirtualShards)
	if err != nil {
		return nil, err
	}
	fabric, err := newFabric(mem, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	cfg.Pipeline.Engine = cfg.Pipeline.EngineSpec()
	rt := &runtime{
		cfg:    cfg,
		plan:   plan,
		fabric: fabric,
		mem:    mem,
		policy: newShardPolicy(cfg.ShardPolicy, DefaultVirtualShards, mem),
		inj:    faults.NewInjector(plan),
		ranks:  make([]rank, mem.Capacity()),
		ctx:    context.Background(),
	}
	fabric.UseInjector(rt.inj)
	rt.release = rt.cfg.Pipeline.Engine.ResolveDevices()
	for r := 0; r < cfg.Ranks; r++ {
		if err := rt.attachDevice(r); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rt, nil
}

// Close implements locassm.Engine: it releases the run's device source, which
// closes the devices the default source made and leaves a supplier's alone.
// RunContext calls it when the run ends.
func (rt *runtime) Close() { rt.release() }

// scatterReads models the initial distribution of the input pairs from the
// I/O rank (rank 0) to each read's home rank — the FASTQ scatter every
// distributed assembler starts with. Homes span the initial ranks only:
// join slots are still absent at scatter time.
func (rt *runtime) scatterReads(pairs []dna.PairedRead) error {
	matrix := newMatrix(len(rt.ranks))
	for i := range pairs {
		home := ReadHomeRank(pairs[i].Fwd.ID, rt.cfg.Ranks)
		matrix[0][home] += readMsgBytes(&pairs[i].Fwd) + readMsgBytes(&pairs[i].Rev)
	}
	_, err := rt.fabric.Exchange("read scatter", matrix)
	return err
}

// Assemble implements locassm.Engine: one contigging round's local
// assembly, distributed, as the round's phases in order. Per the Engine
// contract the input contigs are not mutated; the per-contig results are
// returned in input order and the caller (the pipeline's local-assembly
// stage) applies the extensions.
func (rt *runtime) Assemble(k int, ctgs []*locassm.CtgWithReads) ([]locassm.Result, locassm.Stats, error) {
	round := rt.rounds // 0-based, for the injector
	rt.rounds++
	if err := rt.stopped("membership", k); err != nil {
		return nil, locassm.Stats{}, err
	}
	smap := rt.policy.roundShardMap(k, ctgs)
	deal, err := rt.applyMembership(round, k, ctgs, smap)
	if err == nil {
		err = rt.stopped("read exchange", k)
	}
	if err != nil {
		return nil, locassm.Stats{}, err
	}
	if err := rt.exchangeReads(k, ctgs, smap, deal); err != nil {
		return nil, locassm.Stats{}, err
	}
	if err := rt.stopped("shard assembly", k); err != nil {
		return nil, locassm.Stats{}, err
	}
	byShard, shardIdx := shardContigs(ctgs, smap, DefaultVirtualShards)
	outs, err := rt.assembleShards(round, k, byShard, deal)
	if err == nil {
		err = rt.stopped("work steal", k)
	}
	if err != nil {
		return nil, locassm.Stats{}, err
	}
	makespan, err := rt.scheduleSteals(round, k, byShard, outs, deal)
	if err == nil {
		err = rt.stopped("gather and allgather", k)
	}
	if err != nil {
		return nil, locassm.Stats{}, err
	}
	results, stats := rt.gatherShards(len(ctgs), outs, shardIdx, deal, makespan)
	return results, stats, rt.allgatherContigs(k, ctgs, results, smap, deal)
}

// stopped returns, once the run's context is done, an error naming the
// phase of round k the run stops before and wrapping ctx.Err().
func (rt *runtime) stopped(phase string, k int) error {
	if err := rt.ctx.Err(); err != nil {
		return fmt.Errorf("dist: canceled before %s k=%d: %w", phase, k, err)
	}
	return nil
}

// applyMembership is the round boundary: it admits the scheduled joins
// (bootstrap exchange), evicts the scheduled crashes and leaves, and poisons
// any device scheduled to fail this round (its rank discovers the loss at
// first launch and degrades to the host engine). Joins precede evictions, so
// a round that both grows and shrinks re-deals through the grown set first,
// exactly as faults.ParseElastic replays it. Returns the round's deal.
// Writes elastic.Joins, elastic.RebalancedBytes, rec.Evictions,
// rec.RecoveredBytes.
func (rt *runtime) applyMembership(round, k int, ctgs []*locassm.CtgWithReads, smap ShardMap) (*shardDeal, error) {
	if err := rt.admitJoins(round, k, ctgs, smap); err != nil {
		return nil, err
	}
	if err := rt.evictCrashed(round, ctgs, smap); err != nil {
		return nil, err
	}
	deal := rt.mem.Deal()
	// In budget mode OOM events never poison devices: the pipeline's
	// counting budget absorbs them (MemPressure shrinks it and the pass
	// plan spills), so local assembly keeps its device.
	if rt.cfg.Pipeline.MemBudget == 0 {
		for _, r := range deal.live {
			if rk := &rt.ranks[r]; rk.deviceOK && rt.inj.DeviceFault(r, round) {
				rk.dev.InjectFault(nil)
			}
		}
	}
	return deal, nil
}

// admitJoins applies the round's scheduled rank joins: each joiner draws a
// device from the run's source (the service's pool, else a fresh simulated
// one) and enters the membership. The re-deal hands it whole
// virtual shards — whole components under the component policy — and the
// owners it displaces ship it their contig records in one "join bootstrap"
// exchange, accounted as rebalanced bytes.
func (rt *runtime) admitJoins(round, k int, ctgs []*locassm.CtgWithReads, smap ShardMap) error {
	joins := rt.inj.JoinsAt(round)
	if len(joins) == 0 {
		return nil
	}
	before := rt.mem.Deal()
	for _, r := range joins {
		if err := rt.attachDevice(r); err != nil {
			return err
		}
		if err := rt.mem.Join(r, round); err != nil {
			return err
		}
		rt.elastic.Joins++
	}
	matrix, moved := movedOwners(ctgs, smap, before, rt.mem.Deal(), len(rt.ranks))
	rt.elastic.RebalancedBytes += moved
	_, err := rt.fabric.Exchange(fmt.Sprintf("join bootstrap k=%d", k), matrix)
	return err
}

// evictCrashed applies the round's scheduled rank crashes (and elastic
// leaves, which are crash events with a deterministic victim): crashed
// ranks leave the membership and their virtual shards are re-dealt to the
// survivors. Contig state is replicated by the allgather (or held
// component-local with a scatter-home replica under component sharding),
// so survivors adopt local copies; the bytes whose ownership moves are
// accounted as recovered. Because the re-deal moves shards — and a shard
// holds whole components under the component policy — recovery never
// splits a component.
func (rt *runtime) evictCrashed(round int, ctgs []*locassm.CtgWithReads, smap ShardMap) error {
	crashes := rt.inj.CrashesAt(round)
	if len(crashes) == 0 {
		return nil
	}
	before := rt.mem.Deal()
	for _, r := range crashes {
		if !rt.mem.Alive(r) {
			continue
		}
		if rt.mem.LiveCount() == 1 {
			return fmt.Errorf("dist: rank %d crash at round %d leaves no survivor: %w",
				r, round, ErrUnrecoverable)
		}
		if err := rt.mem.Evict(r, round); err != nil {
			return err
		}
		rt.rec.Evictions++
	}
	_, moved := movedOwners(ctgs, smap, before, rt.mem.Deal(), len(rt.ranks))
	rt.rec.RecoveredBytes += moved
	return nil
}

// exchangeReads routes the round's candidate reads to the ranks owning the
// contigs they aligned to. Hash policy: all-to-all, every rank routes the
// reads its alignments produced (MHM2's aggregating stores ahead of local
// assembly). Component policy: reads live with their component, so only
// reads whose component ownership moved travel. Issues "read exchange";
// writes each rank's owned-contig count.
func (rt *runtime) exchangeReads(k int, ctgs []*locassm.CtgWithReads, smap ShardMap, deal *shardDeal) error {
	for r := range rt.ranks {
		rt.ranks[r].owned = 0
	}
	for _, c := range ctgs {
		rt.ranks[deal.rankOf(smap.Shard(c.ID))].owned++
	}
	_, err := rt.fabric.Exchange(fmt.Sprintf("read exchange k=%d", k),
		rt.policy.exchangeMatrix(ctgs, smap, deal, len(rt.ranks)))
	return err
}

// assembleShards runs the sharded local assembly: each live rank drives its
// virtual shards concurrently with every other rank. Returns one outcome per
// non-empty shard. Writes rec.DeviceFallbacks (and, through runRank, the
// falling-back rank's deviceOK).
func (rt *runtime) assembleShards(round, k int, byShard [][]*locassm.CtgWithReads, deal *shardDeal) ([]*shardOutcome, error) {
	outs := make([]*shardOutcome, len(byShard)) // each shard written only by its owner
	var wg sync.WaitGroup
	wg.Add(len(deal.live))
	for i, r := range deal.live {
		go func(i, r int) {
			defer wg.Done()
			rt.ranks[r].err = rt.runRank(r, i, len(deal.live), round, k, byShard, outs)
		}(i, r)
	}
	wg.Wait()
	for _, r := range deal.live {
		if err := rt.ranks[r].err; err != nil {
			return nil, err
		}
		if rt.ranks[r].fellBack {
			rt.rec.DeviceFallbacks++
		}
	}
	return outs, nil
}

// runRank is one rank's share of assembleShards: live rank r, i-th of nl,
// assembles shards i, i+nl, … (virtual shard s lives on live[s mod nl]) on
// its own device's batch driver or, without a device (CPUAssembly, a device
// fault), the host flat-table engine.
func (rt *runtime) runRank(r, i, nl, round, k int, byShard [][]*locassm.CtgWithReads, outs []*shardOutcome) error {
	rk := &rt.ranks[r]
	rk.fellBack = false
	gpuEng, cpuEng, err := rt.rankEngines(r, round)
	if err != nil {
		return err
	}
	eng := gpuEng
	if !rk.deviceOK {
		eng = cpuEng
	}
	for s := i; s < len(byShard); s += nl {
		if len(byShard[s]) == 0 {
			continue
		}
		results, stats, err := eng.Assemble(k, byShard[s])
		if errors.Is(err, simt.ErrDeviceLost) {
			// Device lost mid-round: degrade this rank to its host engine
			// and recompute the shard there. The flat-table engine is
			// bit-identical to the GPU path, so results are unaffected.
			eng = cpuEng
			rk.deviceOK, rk.fellBack = false, true
			results, stats, err = eng.Assemble(k, byShard[s])
		}
		if err != nil {
			return fmt.Errorf("rank %d shard %d: %w", r, s, err)
		}
		outs[s] = &shardOutcome{results: results, stats: stats, onGPU: eng == gpuEng}
	}
	return nil
}

// rankEngines builds one round's engines for rank r from the run's resolved
// spec: the device engine over the rank's own GPU while it has one (with the
// round's injected kernel aborts wired into the driver's fault hook), and the
// host flat-table engine it runs under CPUAssembly or degrades to after a
// device loss, on the process's workers spread over the rank slots.
func (rt *runtime) rankEngines(r, round int) (gpuEng, cpuEng locassm.Engine, err error) {
	// Scheduled kernel aborts: the first aborts launches on this rank
	// this round fail with a recoverable table fault, which the batch
	// driver answers by re-splitting the batch.
	var abortsLeft atomic.Int32
	abortsLeft.Store(int32(rt.inj.KernelAborts(r, round)))
	spec := rt.cfg.Pipeline.Engine
	spec.GPU.FaultHook = func() error {
		if abortsLeft.Add(-1) >= 0 {
			return fmt.Errorf("dist: injected kernel abort: %w", gpuht.ErrTableFull)
		}
		return nil
	}
	if rk := &rt.ranks[r]; rk.deviceOK {
		gspec := spec
		gspec.Name, gspec.Device, gspec.Devices = locassm.EngineGPU, rk.dev, nil
		if gpuEng, err = locassm.NewEngine(gspec); err != nil {
			return nil, nil, err
		}
	}
	spec.Name, spec.Workers = locassm.EngineCPU, max(1, par.Workers(spec.Workers)/len(rt.ranks))
	cpuEng, err = locassm.NewEngine(spec)
	return gpuEng, cpuEng, err
}

// scheduleSteals replays the round's batch queues over the per-shard modeled
// costs (see steal.go) and returns the round's makespan. Output bytes never
// depend on it: only the busy accounting and the makespan do. A straggler
// computes the same work, slower — every batch the rank runs, own or stolen,
// pays its factor. The stolen batches' payloads cross the fabric in one
// "work steal" exchange. Writes rec.Stragglers, elastic.Steals/
// StolenBatches/StolenBytes/NoStealWall/StealWall, each rank's busy time and
// compWall.
func (rt *runtime) scheduleSteals(round, k int, byShard [][]*locassm.CtgWithReads, outs []*shardOutcome, deal *shardDeal) (clock.Machine, error) {
	n := len(rt.ranks)
	cost := make([]clock.Machine, len(byShard))
	bytes := make([]int64, len(byShard))
	for s, out := range outs {
		if out != nil {
			cost[s] = out.stats.Busy
		}
		for _, c := range byShard[s] {
			bytes[s] += ctgWeight(c)
		}
	}
	factor := make([]float64, n)
	for r := range factor {
		factor[r] = 1
	}
	for _, r := range deal.live {
		if f := rt.inj.StragglerFactor(r, round); f != 1 {
			rt.rec.Stragglers++
			factor[r] = f
		}
	}
	sim := stealSchedule(deal, cost, bytes, factor, n)
	if len(sim.steals) > 0 {
		flows := make(map[[2]int]bool)
		for _, st := range sim.steals {
			flows[[2]int{st.victim, st.thief}] = true
			rt.elastic.StolenBatches++
			rt.elastic.StolenBytes += st.bytes
		}
		rt.elastic.Steals += len(flows)
		if _, err := rt.fabric.Exchange(fmt.Sprintf("work steal k=%d", k), stealMatrix(sim.steals, n)); err != nil {
			return 0, err
		}
	}
	rt.elastic.NoStealWall += sim.noStealMakespan
	rt.elastic.StealWall += sim.makespan
	for r := range rt.ranks {
		rt.ranks[r].busy += sim.busy[r]
	}
	rt.compWall += sim.makespan
	return sim.makespan, nil
}

// gatherShards merges the shard outcomes in canonical virtual-shard order,
// so accounting and kernel lists are identical for every rank count. Ranks
// overlap, so the round's busy wall is the makespan, not the sum. Writes
// each rank's kernel count and rec.BatchResplits.
func (rt *runtime) gatherShards(nCtgs int, outs []*shardOutcome, shardIdx [][]int, deal *shardDeal, makespan clock.Machine) ([]locassm.Result, locassm.Stats) {
	results := make([]locassm.Result, nCtgs)
	var stats locassm.Stats
	for s, out := range outs {
		if out == nil {
			continue
		}
		if out.onGPU {
			rt.ranks[deal.rankOf(s)].kernels += len(out.stats.Kernels)
		}
		rt.rec.BatchResplits += out.stats.Resplits
		shardStats := out.stats
		shardStats.Busy = 0
		stats.Add(shardStats)
		for j, gi := range shardIdx[s] {
			results[gi] = out.results[j]
		}
	}
	stats.Busy = makespan
	return results, stats
}

// allgatherContigs closes the round: owners publish their extended contigs
// for the next round's alignment index (and the final outputs) — a broadcast
// to every live rank under the hash policy, a rank-local refresh under the
// component policy. The extensions are not applied here (the pipeline stage
// does that), so the matrix takes the extended lengths from the results.
// Issues "contig allgather"; writes no counter.
func (rt *runtime) allgatherContigs(k int, ctgs []*locassm.CtgWithReads, results []locassm.Result, smap ShardMap, deal *shardDeal) error {
	_, err := rt.fabric.Exchange(fmt.Sprintf("contig allgather k=%d", k),
		rt.policy.gatherMatrix(ctgs, results, smap, deal, len(rt.ranks)))
	return err
}

// Run executes the pipeline distributed across cfg.Ranks simulated ranks
// and returns the gathered result — bit-identical in contigs, scaffolds,
// and kernel launch lists to the same Config run at Ranks=1 — together
// with the strong-scaling report.
func Run(pairs []dna.PairedRead, cfg Config) (*pipeline.Result, *Report, error) {
	return RunContext(context.Background(), pairs, cfg)
}

// RunContext is Run with cancellation. The pipeline stage driver checks ctx
// at every stage boundary, and inside the local-assembly stage each round
// checks it before every phase (membership, read exchange, shard assembly,
// work steal, gather and allgather): a canceled run stops at the next of
// these, and an exchange or a shard assembly in flight completes first.
// The returned error wraps ctx.Err() and, from inside a round, names the
// phase it stopped before.
func RunContext(ctx context.Context, pairs []dna.PairedRead, cfg Config) (*pipeline.Result, *Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer rt.Close()
	return rt.run(ctx, pairs)
}

// run is RunContext on a built runtime.
func (rt *runtime) run(ctx context.Context, pairs []dna.PairedRead) (*pipeline.Result, *Report, error) {
	rt.ctx = ctx
	if err := rt.scatterReads(pairs); err != nil {
		return nil, nil, err
	}

	pcfg := rt.cfg.Pipeline // with the run's device source resolved
	pcfg.Engine.Name, pcfg.Engine.Instance = locassm.EngineDist, rt
	if pcfg.MemBudget > 0 && pcfg.MemPressure == nil {
		// Chaos OOM events become memory pressure on the counting budget
		// (graceful spill) instead of device poison pills.
		pcfg.MemPressure = rt.inj.OOMCount
	}
	res, err := pipeline.RunContext(ctx, pairs, pcfg)
	if err != nil {
		return nil, nil, err
	}
	rt.rec.OOMReplans += res.Work.KmerBudget.OOMReplans
	rt.rec.SpillPasses += res.Work.KmerBudget.SpillPasses

	res.Work.CommTime = rt.fabric.TotalTime()
	res.Work.CommBytes = rt.fabric.TotalBytes()
	res.Work.CommMsgs = rt.fabric.TotalMsgs()
	return res, rt.report(), nil
}
