package dist

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/locassm"
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

func init() {
	// Reserve the "dist" engine name in the shared registry. The
	// distributed engine binds to a live multi-rank runtime (fabric,
	// per-rank devices, fault injector), so it cannot be built from a
	// declarative spec: dist.Run constructs the runtime and injects it via
	// EngineSpec.Instance.
	locassm.RegisterEngine(locassm.EngineDist, func(locassm.EngineSpec) (locassm.Engine, error) {
		return nil, fmt.Errorf("dist: the %q engine requires a live multi-rank runtime; use dist.Run (mhm2sim -engine=dist)", locassm.EngineDist)
	})
}

// Config parameterizes a distributed run.
type Config struct {
	// Ranks is the number of simulated ranks (processes), each owning one
	// device and a slice of the contigs and reads.
	Ranks int
	// VirtualShards is the number of hash shards dealt across ranks
	// (0 = DefaultVirtualShards). It must not change between runs that
	// are expected to produce identical kernel launch lists.
	VirtualShards int
	// ShardPolicy selects the contig → virtual-shard map: ShardHash
	// (default, "") hashes contig IDs; ShardComponent runs a per-round
	// connected-components pass and assigns whole de Bruijn components to
	// shards with LPT bin packing, turning most exchange and allgather
	// traffic rank-local. Either policy yields bit-identical contigs and
	// scaffolds for any rank count.
	ShardPolicy string
	// Fabric models the interconnect (zero value = DefaultFabricConfig).
	Fabric FabricConfig
	// Device is the per-rank GPU (zero value = simt.V100()).
	Device simt.DeviceConfig
	// Pipeline configures the underlying assembly pipeline. Its Engine
	// and Device fields are managed by dist.Run (the runtime injects
	// itself as the pipeline's engine); local assembly executes on the
	// per-rank devices (or the per-rank host engines, below).
	Pipeline pipeline.Config
	// CPUAssembly runs each rank's local assembly on the host flat-table
	// engine instead of its simulated GPU — the per-rank CPU baseline the
	// paper's speedups are measured against. Results are bit-identical to
	// the GPU path; only the Busy accounting (modeled host time instead of
	// kernel time) and the kernel lists (empty) change.
	CPUAssembly bool
	// CPUWorkers bounds each rank's worker goroutines under CPUAssembly
	// (0 = GOMAXPROCS spread evenly across ranks).
	CPUWorkers int
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
	// NoSteal disables intra-round work stealing. By default idle ranks
	// claim tail batches from the most-loaded live rank, which lowers the
	// modeled round makespan under load imbalance (stragglers, joins)
	// without changing any output byte.
	NoSteal bool
	// DeviceProvider, when set, supplies the device for each joining rank
	// (the service wires the DevicePool in here so elastic jobs draw real
	// pool capacity); nil falls back to fresh simt.NewDevice(Device).
	// DeviceRelease, when set, takes every provider-supplied device back
	// after the run.
	DeviceProvider func() (*simt.Device, error)
	DeviceRelease  func(*simt.Device)
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
	if c.VirtualShards == 0 {
		c.VirtualShards = DefaultVirtualShards
	}
	if c.ShardPolicy == "" {
		c.ShardPolicy = ShardHash
	}
	c.Fabric = c.Fabric.withDefaults()
	if c.Device.Name == "" {
		c.Device = simt.V100()
	}
	return c
}

// Validate checks the distributed configuration (after defaulting).
func (c *Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("dist: need ≥ 1 rank, got %d", c.Ranks)
	}
	if c.VirtualShards < c.Ranks {
		return fmt.Errorf("dist: %d virtual shards cannot cover %d ranks (ranks would idle)",
			c.VirtualShards, c.Ranks)
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

// runtime is the live state of one distributed run. It implements
// locassm.Engine: pipeline.Run hands it each round's contigs-with-reads
// and it performs the read exchange, the sharded concurrent local
// assembly (each rank running a registry engine over its virtual shards),
// and the contig allgather.
type runtime struct {
	cfg    Config
	plan   *faults.Plan // Faults merged with the parsed Elastic schedule
	fabric *Fabric
	mem    *Membership
	devs   []*simt.Device // one per rank slot, up to capacity
	pooled []bool         // device came from cfg.DeviceProvider
	inj    *faults.Injector

	// Accumulated across rounds (written only between concurrent phases).
	busy     []time.Duration // per-rank modeled busy time (own + stolen work)
	kernels  []int           // per-rank kernel launches
	owned    []int           // per-rank owned contigs (last round)
	deviceOK []bool          // ranks still assembling on their device
	rec      RecoveryStats
	elastic  ElasticityStats
	compWall time.Duration // Σ over rounds of the round makespans
	rounds   int

	// Component-policy state: the current residence rank of every routed
	// read (reads live with their component between rounds), the per-round
	// component counts, and the accumulated component-pass wall time.
	readRank   map[string]int
	components []int
	compPass   time.Duration
}

func newRuntime(cfg Config) (*runtime, error) {
	plan, err := cfg.effectivePlan()
	if err != nil {
		return nil, err
	}
	capacity := cfg.Ranks
	if c := plan.Capacity(); c > capacity {
		capacity = c
	}
	fabric, err := NewFabricWithCapacity(cfg.Ranks, capacity, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	mem, err := NewMembership(cfg.Ranks, capacity, cfg.VirtualShards)
	if err != nil {
		return nil, err
	}
	rt := &runtime{
		cfg:      cfg,
		plan:     plan,
		fabric:   fabric,
		mem:      mem,
		devs:     make([]*simt.Device, capacity),
		pooled:   make([]bool, capacity),
		inj:      faults.NewInjector(plan),
		busy:     make([]time.Duration, capacity),
		kernels:  make([]int, capacity),
		owned:    make([]int, capacity),
		deviceOK: make([]bool, capacity),
		readRank: make(map[string]int),
	}
	fabric.UseInjector(rt.inj)
	for r := 0; r < cfg.Ranks; r++ {
		rt.devs[r] = simt.NewDevice(cfg.Device)
		rt.deviceOK[r] = true
	}
	return rt, nil
}

// releaseDevices hands every provider-supplied device back through
// cfg.DeviceRelease. Called once after the run (the report reads device
// traffic first).
func (rt *runtime) releaseDevices() {
	if rt.cfg.DeviceRelease == nil {
		return
	}
	for r, dev := range rt.devs {
		if rt.pooled[r] && dev != nil {
			rt.cfg.DeviceRelease(dev)
			rt.devs[r] = nil
			rt.pooled[r] = false
		}
	}
}

// admitJoins applies the round's scheduled rank joins: each joiner gets a
// device (from cfg.DeviceProvider when the service wires a pool in, else a
// fresh simulated one), enters the fabric collective, and bumps the
// membership epoch. The re-deal hands it whole virtual shards — whole
// components under the component policy — and the owners it displaces ship
// it their contig records in one "join bootstrap" exchange, accounted as
// rebalanced bytes. Joins precede evictions at a boundary, so a round that
// both grows and shrinks re-deals through the grown set first, exactly as
// faults.ParseElastic replays it.
func (rt *runtime) admitJoins(round int, k int, ctgs []*locassm.CtgWithReads, smap ShardMap) error {
	joins := rt.inj.JoinsAt(round)
	if len(joins) == 0 {
		return nil
	}
	before := rt.mem.Deal()
	for _, r := range joins {
		dev := (*simt.Device)(nil)
		if rt.cfg.DeviceProvider != nil {
			d, err := rt.cfg.DeviceProvider()
			if err != nil {
				return fmt.Errorf("dist: no device for joining rank %d at round %d: %w", r, round, err)
			}
			dev, rt.pooled[r] = d, true
		} else {
			dev = simt.NewDevice(rt.cfg.Device)
		}
		if err := rt.mem.Join(r, round); err != nil {
			return err
		}
		rt.devs[r] = dev
		rt.deviceOK[r] = true
		rt.fabric.Join(r, round)
		rt.elastic.Joins++
	}
	after := rt.mem.Deal()
	matrix := newMatrix(rt.mem.Capacity())
	for _, c := range ctgs {
		s := smap.Shard(c.ID)
		src, dst := before.rankOf(s), after.rankOf(s)
		if src != dst {
			b := int64(len(c.Seq) + recordOverheadBytes)
			matrix[src][dst] += b
			rt.elastic.RebalancedBytes += b
		}
	}
	_, err := rt.fabric.Exchange(fmt.Sprintf("join bootstrap k=%d", k), matrix)
	return err
}

// evictCrashed applies the round's scheduled rank crashes (and elastic
// leaves, which are crash events with a deterministic victim): crashed
// ranks leave the collective and their virtual shards are re-dealt to the
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
		rt.fabric.Evict(r, round)
		rt.rec.Evictions++
	}
	after := rt.mem.Deal()
	for _, c := range ctgs {
		s := smap.Shard(c.ID)
		if before.rankOf(s) != after.rankOf(s) {
			rt.rec.RecoveredBytes += int64(len(c.Seq) + recordOverheadBytes)
		}
	}
	return nil
}

// scatterReads models the initial distribution of the input pairs from the
// I/O rank (rank 0) to each read's home rank — the FASTQ scatter every
// distributed assembler starts with. Homes span the initial ranks only:
// join slots are still absent at scatter time.
func (rt *runtime) scatterReads(pairs []dna.PairedRead) error {
	matrix := newMatrix(rt.mem.Capacity())
	for i := range pairs {
		home := ReadHomeRank(pairs[i].Fwd.ID, rt.cfg.Ranks)
		matrix[0][home] += readMsgBytes(&pairs[i].Fwd) + readMsgBytes(&pairs[i].Rev)
	}
	_, err := rt.fabric.Exchange("read scatter", matrix)
	return err
}

// Name implements locassm.Engine.
func (rt *runtime) Name() string { return locassm.EngineDist }

// rankEngines builds one round's engines for rank r through the shared
// registry: the device engine over the rank's own GPU (with the round's
// injected kernel aborts wired into the driver's fault hook), and the host
// flat-table engine it degrades to under CPUAssembly or after a device
// loss.
func (rt *runtime) rankEngines(r, round, cpuWorkers int) (gpuEng, cpuEng locassm.Engine, err error) {
	// Scheduled kernel aborts: the first aborts launches on this rank
	// this round fail with a recoverable table fault, which the batch
	// driver answers by re-splitting the batch.
	var abortsLeft atomic.Int32
	abortsLeft.Store(int32(rt.inj.KernelAborts(r, round)))
	gcfg := rt.cfg.Pipeline.GPU
	gcfg.FaultHook = func() error {
		if abortsLeft.Add(-1) >= 0 {
			return fmt.Errorf("dist: injected kernel abort: %w", gpuht.ErrTableFull)
		}
		return nil
	}
	gpuEng, err = locassm.NewEngine(locassm.EngineSpec{
		Name:   locassm.EngineGPU,
		Config: rt.cfg.Pipeline.Locassm,
		GPU:    gcfg,
		Device: rt.devs[r],
	})
	if err != nil {
		return nil, nil, err
	}
	cpuEng, err = locassm.NewEngine(locassm.EngineSpec{
		Name:    locassm.EngineCPU,
		Config:  rt.cfg.Pipeline.Locassm,
		Workers: cpuWorkers,
	})
	return gpuEng, cpuEng, err
}

// Assemble implements locassm.Engine: one contigging round's local
// assembly, distributed. Per the Engine contract the input contigs are
// not mutated; the per-contig results are returned in input order and the
// caller (the pipeline's local-assembly stage) applies the extensions.
func (rt *runtime) Assemble(k int, ctgs []*locassm.CtgWithReads) ([]locassm.Result, locassm.Stats, error) {
	n := rt.mem.Capacity()
	v := rt.cfg.VirtualShards
	round := rt.rounds // 0-based, for the injector
	rt.rounds++

	// Shard map for the round: the hash policy is stateless; the component
	// policy runs the (timed) connected-components pass over the global
	// workload and packs whole components onto the virtual shards. Either
	// way the map is a pure function of (k, ctgs), never of N.
	var smap ShardMap = hashShardMap{v}
	if rt.cfg.ShardPolicy == ShardComponent {
		start := time.Now()
		cm := newComponentShardMap(k, ctgs, v)
		rt.compPass += time.Since(start)
		rt.components = append(rt.components, cm.count)
		smap = cm
	}

	// Round boundary — admit scheduled rank joins (bootstrap exchange,
	// epoch bump), then apply scheduled rank crashes and re-deal the dead
	// ranks' virtual shards over the survivors, then poison any device
	// scheduled to fail this round (its rank discovers the loss at first
	// launch and degrades to the host engine).
	if err := rt.admitJoins(round, k, ctgs, smap); err != nil {
		return nil, locassm.Stats{}, err
	}
	if err := rt.evictCrashed(round, ctgs, smap); err != nil {
		return nil, locassm.Stats{}, err
	}
	deal := rt.mem.Deal()
	live := deal.live
	nl := len(live)
	// In budget mode OOM events never poison devices: the pipeline's
	// counting budget absorbs them (MemPressure shrinks it and the pass
	// plan spills), so local assembly keeps its device.
	if rt.cfg.Pipeline.MemBudget == 0 {
		for _, r := range live {
			if rt.deviceOK[r] && rt.inj.DeviceFault(r, round) {
				rt.devs[r].InjectFault(nil)
			}
		}
	}

	// Phase 1 — read exchange. Hash policy: all-to-all, every rank routes
	// the candidate reads its alignments produced to the rank owning the
	// hit contig (MHM2's aggregating stores ahead of local assembly).
	// Component policy: reads live with their component, so only reads
	// whose component ownership moved travel — one migration per read,
	// mostly rank-local once residences settle.
	for r := range rt.owned {
		rt.owned[r] = 0
	}
	for _, c := range ctgs {
		rt.owned[deal.rankOf(smap.Shard(c.ID))]++
	}
	var exchange [][]int64
	if rt.cfg.ShardPolicy == ShardComponent {
		exchange = migrationMatrix(ctgs, smap, deal, n, rt.readRank, rt.mem)
	} else {
		exchange = readExchangeMatrix(ctgs, smap, deal, n)
	}
	if _, err := rt.fabric.Exchange(fmt.Sprintf("read exchange k=%d", k), exchange); err != nil {
		return nil, locassm.Stats{}, err
	}

	// Phase 2 — sharded local assembly: each live rank drives its virtual
	// shards concurrently with every other rank, through a registry
	// engine — its own device's batch driver or, under CPUAssembly or
	// after a device fault, the host flat-table engine.
	byShard, shardIdx := shardContigs(ctgs, smap, v)
	cpuWorkers := rt.cfg.CPUWorkers
	if cpuWorkers < 1 {
		cpuWorkers = goruntime.GOMAXPROCS(0) / n
		if cpuWorkers < 1 {
			cpuWorkers = 1
		}
	}

	shardRes := make([]*shardOutcome, v)
	shardBusy := make([]time.Duration, v) // each shard written only by its owner
	fellBack := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(nl)
	for i, r := range live {
		go func(i, r int) {
			defer wg.Done()
			gpuEng, cpuEng, err := rt.rankEngines(r, round, cpuWorkers)
			if err != nil {
				errs[r] = err
				return
			}
			eng := gpuEng
			if rt.cfg.CPUAssembly || !rt.deviceOK[r] {
				eng = cpuEng
			}
			for s := i; s < v; s += nl { // virtual shard s lives on live[s mod nl]
				if len(byShard[s]) == 0 {
					continue
				}
				results, stats, err := eng.Assemble(k, byShard[s])
				if errors.Is(err, simt.ErrDeviceLost) {
					// Device lost mid-round: degrade this rank to its
					// host engine and recompute the shard there. The
					// flat-table engine is bit-identical to the GPU
					// path, so results are unaffected.
					eng = cpuEng
					rt.deviceOK[r] = false
					fellBack[r] = true
					results, stats, err = eng.Assemble(k, byShard[s])
				}
				if err != nil {
					errs[r] = fmt.Errorf("rank %d shard %d: %w", r, s, err)
					return
				}
				shardRes[s] = &shardOutcome{results: results, stats: stats, onGPU: eng == gpuEng}
				shardBusy[s] = stats.Busy
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, locassm.Stats{}, err
		}
	}
	factor := make([]float64, n)
	for r := range factor {
		factor[r] = 1
	}
	for _, r := range live {
		if fellBack[r] {
			rt.rec.DeviceFallbacks++
		}
		// A straggler computes the same work, slower — every batch the rank
		// runs, own or stolen, pays its factor.
		if f := rt.inj.StragglerFactor(r, round); f != 1 {
			rt.rec.Stragglers++
			factor[r] = f
		}
	}

	// Steal scheduling — replay the round's batch queues over the per-shard
	// modeled costs (see steal.go). Output bytes never depend on it: only
	// the busy accounting and the round makespan do. The stolen batches'
	// payloads cross the fabric in one "work steal" exchange.
	shardBytes := make([]int64, v)
	for s := 0; s < v; s++ {
		for _, c := range byShard[s] {
			shardBytes[s] += ctgWeight(c)
		}
	}
	sim := stealSchedule(deal, shardBusy, shardBytes, factor, n, !rt.cfg.NoSteal)
	if len(sim.steals) > 0 {
		flows := make(map[[2]int]bool)
		for _, st := range sim.steals {
			flows[[2]int{st.victim, st.thief}] = true
			rt.elastic.StolenBatches++
			rt.elastic.StolenBytes += st.bytes
		}
		rt.elastic.Steals += len(flows)
		if _, err := rt.fabric.Exchange(fmt.Sprintf("work steal k=%d", k), stealMatrix(sim.steals, n)); err != nil {
			return nil, locassm.Stats{}, err
		}
	}
	rt.elastic.NoStealWall += sim.noStealMakespan
	rt.elastic.StealWall += sim.makespan

	// Gather — canonical virtual-shard order, so accounting and kernel
	// lists are identical for every rank count.
	roundMax := sim.makespan
	for r := 0; r < n; r++ {
		rt.busy[r] += sim.busy[r]
	}
	rt.compWall += roundMax
	results := make([]locassm.Result, len(ctgs))
	var stats locassm.Stats
	for s := 0; s < v; s++ {
		out := shardRes[s]
		if out == nil {
			continue
		}
		if out.onGPU {
			rt.kernels[deal.rankOf(s)] += len(out.stats.Kernels)
		}
		rt.rec.BatchResplits += out.stats.Resplits
		shardStats := out.stats
		shardStats.Busy = 0 // ranks overlap; the round's busy wall is roundMax
		stats.Add(shardStats)
		for j, gi := range shardIdx[s] {
			results[gi] = out.results[j]
		}
	}
	stats.Busy = roundMax

	// Phase 3 — contig allgather: owners broadcast their extended contigs
	// so every live rank holds the replicated alignment index for the next
	// round (and the final outputs). The extensions are not applied here
	// (the pipeline stage does that), so the matrix accounts the extended
	// lengths from the results. Under component sharding the replicated
	// index collapses to a component-local one — there are no
	// cross-component contigs to broadcast — so every byte stays
	// rank-local.
	var gather [][]int64
	if rt.cfg.ShardPolicy == ShardComponent {
		gather = localIndexMatrix(ctgs, results, smap, deal, n)
	} else {
		gather = allgatherMatrix(ctgs, results, smap, deal, n)
	}
	_, err := rt.fabric.Exchange(fmt.Sprintf("contig allgather k=%d", k), gather)
	return results, stats, err
}

func newMatrix(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	return m
}

// readExchangeMatrix builds the all-to-all byte matrix of the per-round
// read routing under the hash policy: every candidate read travels from
// its home rank to the live rank owning the contig it aligned to, once per
// (contig, side) it is a candidate for — exactly as MHM2 routes one
// aggregated record per alignment. Rows and columns of evicted ranks stay
// zero. Self-destined records (read home == contig owner) count as
// rank-local bytes in the fabric, never wire traffic.
func readExchangeMatrix(ctgs []*locassm.CtgWithReads, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	for _, c := range ctgs {
		owner := deal.rankOf(smap.Shard(c.ID))
		for i := range c.LeftReads {
			matrix[deal.readHome(c.LeftReads[i].ID)][owner] += readMsgBytes(&c.LeftReads[i])
		}
		for i := range c.RightReads {
			matrix[deal.readHome(c.RightReads[i].ID)][owner] += readMsgBytes(&c.RightReads[i])
		}
	}
	return matrix
}

// allgatherMatrix builds the byte matrix of the post-round contig
// broadcast under the hash policy: each owner ships every contig it owns —
// at its post-assembly extended length, computed from the round's results —
// to all other live ranks.
func allgatherMatrix(ctgs []*locassm.CtgWithReads, results []locassm.Result, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	for i, c := range ctgs {
		owner := deal.rankOf(smap.Shard(c.ID))
		extended := len(results[i].LeftExt) + len(c.Seq) + len(results[i].RightExt)
		bytes := int64(extended + recordOverheadBytes)
		for _, d := range deal.live {
			if d != owner {
				matrix[owner][d] += bytes
			}
		}
	}
	return matrix
}

// Run executes the pipeline distributed across cfg.Ranks simulated ranks
// and returns the gathered result — bit-identical in contigs, scaffolds,
// and kernel launch lists to the same Config run at Ranks=1 — together
// with the strong-scaling report. The modeled communication time is folded
// into the result's Timings under pipeline.StageComm and into
// Work.CommTime, the way the simt device folds modeled PCIe time into
// Work.GPUTransferTime.
func Run(pairs []dna.PairedRead, cfg Config) (*pipeline.Result, *Report, error) {
	return RunContext(context.Background(), pairs, cfg)
}

// RunContext is Run with cancellation, forwarded to the pipeline stage
// driver: a canceled distributed run stops at the next stage boundary
// (fabric exchanges in flight complete first, since they execute inside
// the local-assembly stage).
func RunContext(ctx context.Context, pairs []dna.PairedRead, cfg Config) (*pipeline.Result, *Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer rt.releaseDevices()
	if err := rt.scatterReads(pairs); err != nil {
		return nil, nil, err
	}

	pcfg := cfg.Pipeline
	pcfg.Engine = locassm.EngineSpec{Name: locassm.EngineDist, Instance: rt}
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

	commTime := rt.fabric.TotalTime()
	res.Timings.Add(pipeline.StageComm, commTime)
	res.Work.CommTime = commTime
	res.Work.CommBytes = rt.fabric.TotalBytes()
	res.Work.CommMsgs = rt.fabric.TotalMsgs()
	res.Work.Steals = rt.elastic.StolenBatches
	res.Work.RankJoins = rt.elastic.Joins
	res.Work.MembershipEpochs = rt.mem.Epoch() + 1
	return res, rt.report(), nil
}
