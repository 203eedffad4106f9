package main

// clock names the time base (or "count") a number is on. The system runs on
// four clocks and a sum across them is meaningless, so every metric says
// which one it is on.
type clock string

const (
	hostWall     clock = "host-wall"
	hostCPU      clock = "host-cpu"
	deviceModel  clock = "device-model"
	fabricModel  clock = "fabric-model"
	deviceFabric clock = "device+fabric-model"
	counted      clock = "count"
)

// The five workloads. Names are final: later changes are judged by them.
const (
	wArctic = "arctic_cpu"
	wLADump = "la_dump"
	wDist   = "soil_dist8"
	wBudget = "soil_budget"
	wDaemon = "daemon_mix"
)

// runSeconds is how long one run measures unless told otherwise; it is
// BENCHMARK.json's run_seconds.
const runSeconds = 15

const hostProbe = "host.probe_ms"

var workloadOrder = []string{wArctic, wLADump, wDist, wBudget, wDaemon}

var workloadWhy = map[string]string{
	wArctic: "default user path, FASTQ to FASTA on the cpu engine: kmer/dbg/align do the work, simt/gpucount/dist none (bypass for device-side changes)",
	wLADump: "standalone local-assembly kernel study on a captured dump: simt/gpuht/locassm do all the work, kmer/dbg/align none",
	wDist:   "8 GPU ranks with component sharding and stealing: the only workload that runs dist and the gpu engine inside a full pipeline",
	wBudget: "memory-bounded k-mer counting (Bloom prefilter + multi-pass spill): gpucount does most of the work, arctic_cpu never enters it",
	wDaemon: "closed loop of 2 HTTP clients on the job daemon: same pipeline with two jobs sharing the cores, checkpoint/result I/O and scheduler in the loop",
}

var pipelineWorkloads = []string{wArctic, wDist, wBudget}

// tier says where a metric is published.
type tier int

const (
	// tierEndToEnd metrics are defined and non-zero on every workload; they
	// are BENCHMARK.json's end_to_end list and what a run prints with
	// -trace 0.
	tierEndToEnd tier = iota
	// tierScoped metrics are end-to-end quantities that exist on some
	// workloads only (a modeled wall time, a job latency tail) or are
	// legitimately zero (failed_frac). They carry a bound for -compare but
	// are listed under per_layer in BENCHMARK.json, whose end_to_end list
	// admits only metrics every workload reports.
	tierScoped
	// tierLayer metrics describe one layer.
	tierLayer
)

// metricDef fixes a metric's name, unit, clock and direction. Bound is the
// relative worsening that counts as a regression in -compare; exact metrics
// (bound 0) must repeat bit for bit.
type metricDef struct {
	Name   string
	Unit   string
	Clock  clock
	Better string // "lower" or "higher"
	Tier   tier
	Bound  float64
	// Gate is the bound BENCHMARK.json carries for an end_to_end metric.
	// The driver applies it to the medians of ten runs on ten seeds and has
	// no "unresolved" verdict, so it has to clear what this VM does to such
	// medians from one minute to the next; -compare, which can say
	// "unresolved", applies Bound.
	Gate  float64
	Exact bool     // bound 0: any difference between two runs of one seed is a failure
	On    []string // workloads that measure it; nil = all. Elsewhere it reads 0.
}

func (d *metricDef) hostClock() bool { return d.Clock == hostWall || d.Clock == hostCPU }

func (d *metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

func e2e(name, unit string, c clock, better string, bound, gate float64) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: c, Better: better, Tier: tierEndToEnd, Bound: bound, Gate: gate}
}

func scoped(name, unit string, c clock, better string, bound float64, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: c, Better: better, Tier: tierScoped, Bound: bound, Exact: bound == 0, On: on}
}

// layer metrics: timings and rates are noisy, counts and modeled values are
// exact for a given seed.
func timing(name, unit string, better string, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: hostWall, Better: better, Tier: tierLayer, On: on}
}

func exact(name, unit string, c clock, better string, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: c, Better: better, Tier: tierLayer, Exact: true, On: on}
}

// catalog is every metric the benchmark reports, in print order.
var catalog = []metricDef{
	// End to end, every workload. On daemon_mix an op is a job and the
	// samples are per block of thirty jobs: wall_s is a block's mean
	// submit→terminal latency, cpu_s and alloc_mb its totals per job.
	//
	// The gates of wall_s and cpu_s are 0.25: ten seeds of one commit spread
	// (inter-quartile, as a share of the median) by 2–4% on every workload
	// while the host is quiet, but in most sweeps it was not: one or two
	// workloads at 9–20% (la_dump in five sweeps of seven), medians a sixth
	// apart between two sweeps twenty minutes apart, and in a loud spell
	// soil_budget at 1.4–3.2 s per op from one run to the next.
	e2e("setup_s", "s", hostWall, "lower", 0.25, 0.25),
	e2e("wall_s", "s", hostWall, "lower", 0.10, 0.25),
	e2e("cpu_s", "s", hostCPU, "lower", 0.10, 0.25),
	e2e("alloc_mb", "MB", counted, "lower", 0.10, 0.10),

	// End to end as well, and bounded for -compare, but outside
	// BENCHMARK.json's end_to_end list: measured on some workloads only,
	// zero when all is well, or the same quantity as a listed metric
	// (throughput is the input size over wall_s). peak_rss_mb is the
	// resident-set peak of one op, median over ops; with eight ranks
	// allocating at once it depends on when the collector happens to run
	// (soil_dist8: ten seeds of one commit spread by 9–25% of the median),
	// so alloc_mb is the listed memory metric.
	scoped("mbases_per_s", "Mbase/s", hostWall, "higher", 0.10),
	scoped("peak_rss_mb", "MB", counted, "lower", 0.15),
	scoped("model_device_s", "s", deviceModel, "lower", 0, wLADump, wDist),
	scoped("model_dist_wall_s", "s", deviceFabric, "lower", 0, wDist),
	scoped("remote_mb", "MB", counted, "lower", 0, wDist),
	scoped("genome_fraction_pct", "%", counted, "higher", 0, pipelineWorkloads...),
	scoped("ng50_bp", "bp", counted, "higher", 0, pipelineWorkloads...),
	scoped("job_p50_s", "s", hostWall, "lower", 0.10, wDaemon),
	scoped("job_p90_s", "s", hostWall, "lower", 0.15, wDaemon),
	scoped("jobs_per_min", "1/min", hostWall, "higher", 0.10, wDaemon),
	scoped("failed_frac", "ratio", counted, "lower", 0),
	// The control: a fixed computation of the benchmark's own, timed before
	// every op. It is not a result; -compare reads from it how far the host
	// moved between two runs.
	{Name: hostProbe, Unit: "ms", Clock: hostWall, Better: "lower", Tier: tierScoped},

	// pipeline: the benchmark's own Observer, stage wall from the callback.
	timing("pipeline.merge_reads_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.kmer_analysis_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.contig_gen_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.alignment_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.local_assembly_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.scaffolding_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.file_io_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.residual_s", "s", "lower", pipelineWorkloads...),
	timing("pipeline.cold_wall_s", "s", "lower", pipelineWorkloads...),
	exact("pipeline.kmer_occurrences", "count", counted, "lower", pipelineWorkloads...),
	exact("pipeline.contigs", "count", counted, "higher", pipelineWorkloads...),

	timing("dna.fastq_parse_mb_per_s", "MB/s", "higher", wArctic),
	timing("dna.fasta_write_mb_per_s", "MB/s", "higher", wArctic),

	timing("kmer.foreach_k21_mkmers_per_s", "Mkmer/s", "higher", wArctic),
	timing("kmer.foreach_k55_mkmers_per_s", "Mkmer/s", "higher", wArctic),
	timing("kmer.frombytes_revcomp_k33_mkmers_per_s", "Mkmer/s", "higher", wArctic),

	timing("dbg.count_k21_s", "s", "lower", wArctic),
	timing("dbg.count_k55_s", "s", "lower", wArctic),
	timing("dbg.count_mkmers_per_s", "Mkmer/s", "higher", wArctic),
	timing("dbg.contigs_s", "s", "lower", wArctic),
	exact("dbg.distinct_kmers", "count", counted, "lower", wArctic),
	timing("dbg.components_s", "s", "lower", wArctic),

	timing("gpucount.count_host_s", "s", "lower", wBudget),
	exact("gpucount.count_model_s", "s", deviceModel, "lower", wBudget),
	timing("gpucount.budget_host_s", "s", "lower", wBudget),
	exact("gpucount.budget_model_s", "s", deviceModel, "lower", wBudget),
	exact("gpucount.budget_passes", "count", counted, "lower", wBudget),
	exact("gpucount.budget_filtered_singletons", "count", counted, "higher", wBudget),
	exact("gpucount.budget_fp_rate", "ratio", counted, "lower", wBudget),
	timing("gpucount.budget_over_unbounded", "x", "lower", wBudget),

	timing("align.index_build_s", "s", "lower", wArctic),
	timing("align.reads_per_s", "read/s", "higher", wArctic),
	timing("align.sw_mcells_per_s", "Mcell/s", "higher", wArctic),
	exact("align.sw_cells", "count", counted, "lower", wArctic),
	exact("align.hit_frac", "ratio", counted, "higher", wArctic),

	timing("gpualign.batch_host_s", "s", "lower", wArctic),
	exact("gpualign.batch_model_s", "s", deviceModel, "lower", wArctic),
	exact("gpualign.warp_instrs", "count", counted, "lower", wArctic),

	timing("locassm.cpu_host_s", "s", "lower", wLADump),
	exact("locassm.cpu_table_builds", "count", counted, "lower", wLADump),
	exact("locassm.cpu_kmers_inserted", "count", counted, "lower", wLADump),
	exact("locassm.cpu_walk_steps", "count", counted, "lower", wLADump),
	timing("locassm.gpu_host_s", "s", "lower", wLADump),
	exact("locassm.gpu_model_kernel_s", "s", deviceModel, "lower", wLADump),
	exact("locassm.gpu_model_xfer_s", "s", deviceModel, "lower", wLADump),
	exact("locassm.gpu_batches", "count", counted, "lower", wLADump),
	exact("locassm.gpu_resplits", "count", counted, "lower", wLADump),
	timing("locassm.v1_host_s", "s", "lower", wLADump),
	exact("locassm.v1_model_kernel_s", "s", deviceModel, "lower", wLADump),
	exact("locassm.v2_over_v1_model", "x", deviceModel, "lower", wLADump),
	timing("locassm.multigpu_host_s", "s", "lower", wLADump),
	exact("locassm.multigpu_model_busy_s", "s", deviceModel, "lower", wLADump),
	exact("locassm.ext_bases", "count", counted, "higher", wLADump),
	exact("locassm.bin1_ctgs", "count", counted, "lower", wLADump),
	exact("locassm.bin2_ctgs", "count", counted, "lower", wLADump),
	exact("locassm.bin3_ctgs", "count", counted, "lower", wLADump),

	timing("simt.warp_minstr_per_s", "Minstr/s", "higher", wLADump),
	exact("simt.warp_instrs", "count", counted, "lower", wLADump),
	exact("simt.global_sectors", "count", counted, "lower", wLADump),
	exact("simt.atomic_sectors", "count", counted, "lower", wLADump),
	exact("simt.predicated_off_frac", "ratio", counted, "lower", wLADump),
	timing("simt.launch_us", "us", "lower", wLADump),
	exact("simt.launch_allocs", "count", counted, "lower", wLADump),
	timing("simt.memcpy_gb_per_s", "GB/s", "higher", wLADump),

	timing("gpuht.insert_lookup_host_s", "s", "lower", wLADump),
	exact("gpuht.insert_lookup_warp_instrs", "count", counted, "lower", wLADump),

	timing("murmur.hash64_mb_per_s", "MB/s", "higher", wArctic),
	timing("preprocess.run_mreads_per_s", "Mread/s", "higher", wArctic),

	timing("dist.host_wall_s", "s", "lower", wDist),
	timing("dist.host_overhead_s", "s", "lower", wDist),
	exact("dist.model_comm_s", "s", fabricModel, "lower", wDist),
	exact("dist.model_efficiency", "ratio", deviceFabric, "higher", wDist),
	exact("dist.local_bytes", "count", counted, "higher", wDist),
	exact("dist.locality_pct", "%", counted, "higher", wDist),
	exact("dist.msgs", "count", counted, "lower", wDist),
	exact("dist.components", "count", counted, "higher", wDist),
	timing("dist.component_pass_s", "s", "lower", wDist),
	exact("dist.stolen_batches", "count", counted, "higher", wDist),
	exact("dist.steal_model_speedup", "x", deviceModel, "higher", wDist),
	exact("dist.rank_busy_max_over_mean", "x", deviceModel, "lower", wDist),
	timing("dist.exchange_us", "us", "lower", wDist),
	exact("dist.chaos_model_wall_s", "s", deviceFabric, "lower", wDist),
	exact("dist.chaos_exchange_retries", "count", counted, "lower", wDist),
	exact("dist.chaos_device_fallbacks", "count", counted, "lower", wDist),

	timing("service.submit_us_p50", "us", "lower", wDaemon),
	timing("service.queue_wait_p50_s", "s", "lower", wDaemon),
	timing("service.device_wait_p50_s", "s", "lower", wDaemon),
	timing("service.run_p50_s", "s", "lower", wDaemon),
	timing("service.status_poll_us_p50", "us", "lower", wDaemon),
	timing("service.result_fetch_ms_p50", "ms", "lower", wDaemon),
	timing("service.metrics_render_us", "us", "lower", wDaemon),
	exact("service.rejected", "count", counted, "lower", wDaemon),
	timing("service.stage_kmer_analysis_p50_s", "s", "lower", wDaemon),
	timing("service.stage_file_io_p50_s", "s", "lower", wDaemon),

	timing("report.build_encode_ms", "ms", "lower", pipelineWorkloads...),
	// The report carries its own stage timings, so its size moves by a digit.
	{Name: "report.bytes", Unit: "count", Clock: counted, Better: "lower", Tier: tierLayer, On: pipelineWorkloads},

	timing("figures.roofline_sweep_s", "s", "lower", wLADump),
	timing("cluster.model_fit_ms", "ms", "lower", wLADump),
	exact("cluster.la_speedup_256n", "x", deviceModel, "higher", wLADump),
	exact("roofline.v1_warp_gips", "GIPS", deviceModel, "higher", wLADump),
	exact("roofline.v2_warp_gips", "GIPS", deviceModel, "higher", wLADump),

	// host is the Go runtime, not a package of this repository.
	{Name: "host.num_gc", Unit: "count", Clock: counted, Better: "lower", Tier: tierLayer},
	timing("host.gc_pause_ms", "ms", "lower"),
	timing("host.trace_overhead_frac", "ratio", "lower"),
}

func lookupMetric(name string) *metricDef {
	for i := range catalog {
		if catalog[i].Name == name {
			return &catalog[i]
		}
	}
	return nil
}
