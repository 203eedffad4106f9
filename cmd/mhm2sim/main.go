// Command mhm2sim runs the full MetaHipMer2-like pipeline (Fig 1) on a
// synthetic dataset or a FASTQ file and prints the Fig 2-style per-stage
// breakdown, assembly statistics, and — when a device engine ran — the GPU
// local-assembly kernel summary.
//
// The flags that describe the run bind straight into a service.JobSpec —
// the spec the mhm2d daemon accepts as JSON — and the run executes through
// the same service.Plan as a daemon job, so a standalone run and a job of
// the same spec cannot differ (DESIGN.md §19).
//
// -engine selects the local-assembly engine:
//
//	cpu       host flat-table engine — the default
//	gpu       single simulated V100 batch driver
//	multigpu  one node's GPUs (see -gpus), workload sharded across devices
//	dist      multi-rank runtime over a modeled comm fabric (requires
//	          -ranks > 1); prints a Fig 9-style strong-scaling breakdown.
//	          Each rank has its own simulated device unless -host-ranks
//	          puts every rank on the host engine.
//
// Usage:
//
//	mhm2sim -preset arcticsynth [-engine cpu|gpu|multigpu] [-rounds 21,33,55] [-out asm.fasta]
//	mhm2sim -reads reads.fastq -engine gpu
//	mhm2sim -engine multigpu -gpus 6
//	mhm2sim -engine dist -ranks 4 -json run.json
//	mhm2sim -preset soil -engine dist -ranks 8 -shard component
//	mhm2sim -engine dist -ranks 8 -faults rank-crash=1,oom=2 -fault-seed 42
//	mhm2sim -engine dist -ranks 4 -elastic join@r1:2,leave@r2:1
//
// -shard selects the dist engine's contig → virtual-shard map: hash (the
// default MetaHipMer-style deal) or component, which runs a per-round
// connected-components pass and co-locates whole de Bruijn components so
// most exchange and allgather traffic stays rank-local (DESIGN.md §14).
// Either policy produces bit-identical contigs and scaffolds.
//
// -faults injects a seeded chaos schedule into the distributed runtime
// (rank crashes, device faults, kernel aborts, fabric drops/corruption/
// delays, stragglers); the run recovers and produces bit-identical output,
// or exits with status 3 and an "unrecoverable-fault:" line if the retry
// budget is exhausted.
//
// -elastic grows and shrinks the rank set mid-run ("join@r1:2,leave@r2:1"):
// joins admit fresh ranks at round boundaries with an epoch-versioned
// re-deal, leaves retire the highest-numbered live rank. Idle ranks steal
// tail batches from the most-loaded rank every round. Elastic schedules,
// like fault schedules, never change an output byte (DESIGN.md §16).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/histo"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/preprocess"
	"mhm2sim/internal/quality"
	"mhm2sim/internal/report"
	"mhm2sim/internal/service"
)

// options holds the parsed command line: the run's spec, the host-side
// settings this front end attaches to the plan, and where results go.
type options struct {
	spec service.JobSpec

	gpuAln       bool
	doPreprocess bool
	estInsert    bool
	workers      int
	checkpoint   string

	jsonPath    string
	out         string
	evalQuality bool
	dumpLA      string
	cpuProfile  string
	memProfile  string
}

// parseFlags parses args (not including the program name) into options.
// It is split from main so tests can drive it; errors are returned, not
// fatal.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	opts := &options{}
	spec := &opts.spec
	fs := flag.NewFlagSet("mhm2sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&spec.Preset, "preset", "arcticsynth", "dataset preset (ignored when -reads is set)")
	fs.StringVar(&spec.ReadsPath, "reads", "", "FASTQ file of paired reads (fwd,rev interleaved)")
	fs.StringVar(&spec.Engine, "engine", locassm.EngineCPU, "local-assembly engine: cpu|gpu|multigpu|dist")
	fs.IntVar(&spec.GPUs, "gpus", locassm.DefaultNodeGPUs, "devices for -engine=multigpu (default: one Summit node's six V100s)")
	fs.BoolVar(&opts.gpuAln, "gpualn", false, "run the alignment SW kernel on the device (ADEPT role)")
	fs.Func("rounds", "comma-separated contigging k values (default 21,33,55)", func(v string) (err error) {
		spec.Rounds, err = parseRounds(v)
		return err
	})
	fs.IntVar(&spec.Ranks, "ranks", 1, "simulated ranks for -engine=dist (≥ 2 there)")
	fs.BoolVar(&spec.HostRanks, "host-ranks", false, "under -engine=dist, assemble on the host engine instead of a simulated GPU per rank")
	fs.StringVar(&spec.Shard, "shard", dist.ShardHash, "contig → shard map for the dist engine: hash|component (component co-locates whole dBG components)")
	fs.StringVar(&spec.Faults, "faults", "", "inject a seeded fault schedule, e.g. rank-crash=1,oom=2,drop=1 (requires the dist engine)")
	fs.Int64Var(&spec.FaultSeed, "fault-seed", 42, "seed of the injected fault schedule")
	fs.StringVar(&spec.Elastic, "elastic", "", "elastic membership schedule, e.g. join@r1:2,leave@r2:1 (requires the dist engine)")
	fs.StringVar(&opts.jsonPath, "json", "", "write a machine-readable run report to this path")
	fs.StringVar(&opts.out, "out", "", "write contigs+scaffolds FASTA here")
	fs.IntVar(&opts.workers, "workers", 0, "CPU worker goroutines of the process, spread over the ranks under -engine=dist (0 = GOMAXPROCS)")
	fs.BoolVar(&opts.evalQuality, "quality", false, "evaluate the assembly against the preset's truth genomes")
	fs.StringVar(&opts.checkpoint, "checkpoint", "", "checkpoint directory (resume completed rounds)")
	fs.BoolVar(&opts.doPreprocess, "preprocess", false, "adapter/quality-trim and filter reads first")
	fs.StringVar(&opts.dumpLA, "dump-la", "", "dump the final round's local-assembly workload here (for cmd/locassm)")
	fs.BoolVar(&opts.estInsert, "estimate-insert", true, "infer the library insert size from proper pairs")
	fs.Int64Var(&spec.MemBudget, "mem-budget", 0, "device-memory byte budget for k-mer counting: 0 = unbounded, otherwise Bloom-prefiltered multi-pass counting under this many bytes")
	fs.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile (after the run) to this path")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		// fs.Parse prints its own errors; these post-parse checks must
		// print too, or the exit-2 path is silent.
		fmt.Fprintln(stderr, "mhm2sim:", err)
		return nil, err
	}
	return opts, nil
}

// validate is the spec's own validation plus the two rules only the command
// line can break: in a JSON spec ranks 0 and gpus 0 mean "unset".
func (o *options) validate() error {
	if o.spec.Ranks < 1 {
		return fmt.Errorf("-ranks must be ≥ 1, got %d", o.spec.Ranks)
	}
	if o.spec.GPUs < 1 {
		return fmt.Errorf("-gpus must be ≥ 1, got %d", o.spec.GPUs)
	}
	return o.spec.Validate()
}

// plan plans the spec — the same service.NewPlan a daemon job goes through
// — and attaches the command line's host-side settings to it.
func (o *options) plan() (*service.Plan, error) {
	plan, err := service.NewPlan(o.spec)
	if err != nil {
		return nil, err
	}
	cfg := plan.Pipeline
	cfg.UseGPUAln = o.gpuAln
	cfg.EstimateInsert = o.estInsert
	cfg.Workers = o.workers
	cfg.CheckpointDir = o.checkpoint
	if o.doPreprocess {
		pp := preprocess.DefaultConfig()
		cfg.Preprocess = &pp
	}
	return plan, nil
}

// exitFault is the exit status of a run killed by an injected fault after
// the recovery budget was exhausted — distinct from 1 (generic failure) and
// 2 (usage errors) so chaos harnesses can tell the outcomes apart.
const exitFault = 3

// exitCanceled is the exit status of a run stopped by SIGINT/SIGTERM
// before completing — checkpoints written so far remain valid for resume.
const exitCanceled = 4

// runErrorLine classifies a run error into one structured stderr line and a
// process exit status. Unrecoverable injected faults get their own status
// and a greppable prefix instead of a stack trace; so do signal-canceled
// runs (the line names the resume mechanism).
func runErrorLine(err error) (string, int) {
	if errors.Is(err, dist.ErrUnrecoverable) {
		return fmt.Sprintf("unrecoverable-fault: %v", err), exitFault
	}
	if errors.Is(err, context.Canceled) {
		return fmt.Sprintf("canceled: %v (completed rounds are checkpointed when -checkpoint is set)", err), exitCanceled
	}
	return err.Error(), 1
}

// parseRounds parses a comma-separated k list ("21,33,55").
func parseRounds(s string) ([]int, error) {
	var rounds []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("bad -rounds %q: empty entry", s)
		}
		k, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad -rounds %q: %v", s, err)
		}
		rounds = append(rounds, k)
	}
	return rounds, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mhm2sim: ")

	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	plan, err := opts.plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d read pairs\n", len(plan.Pairs))
	if d := plan.Dist; d != nil {
		if d.Elastic != "" {
			fmt.Printf("elastic membership schedule: %s\n", d.Elastic)
		}
		if d.Faults != nil {
			fmt.Printf("injecting faults (seed %d): %s\n", d.Faults.Seed, d.Faults)
		}
	}

	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT/SIGTERM cancel the run at the next stage boundary instead of
	// killing it mid-write; with -checkpoint, completed rounds survive and
	// a rerun resumes past them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, rep, err := plan.Run(ctx)
	if err != nil {
		line, code := runErrorLine(err)
		log.Print(line)
		os.Exit(code)
	}

	if opts.memProfile != "" {
		f, err := os.Create(opts.memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote heap profile to %s\n", opts.memProfile)
	}

	printBreakdown(res)
	printAssemblyStats(res)
	if opts.doPreprocess {
		pp := res.Work.Preprocess
		fmt.Printf("\npreprocessing: %d/%d pairs kept, %d adapter-trimmed, %d quality-trimmed, %d bases removed\n",
			pp.PairsOut, pp.PairsIn, pp.AdapterTrimmed, pp.QualityTrimmed, pp.BasesRemoved)
	}
	if res.Work.EstimatedInsert > 0 {
		fmt.Printf("estimated library insert size: %d bp\n", res.Work.EstimatedInsert)
	}
	if len(res.Work.GPUKernels) > 0 {
		printGPUStats(res)
	}
	if kb := res.Work.KmerBudget; kb.Passes > 0 {
		fmt.Printf("\nmemory-bounded counting: %d passes (%d planned) under a %d-byte budget (effective %d); Bloom filtered %d singleton occurrences (FP rate %.4f)\n",
			kb.Passes, kb.PlannedPasses, kb.Configured, kb.Effective,
			kb.FilteredSingletons, kb.FPRate())
		if kb.OOMReplans > 0 || kb.SpillReplans > 0 {
			fmt.Printf("  degradation: %d OOM re-plans, %d spill re-plans, %d extra passes\n",
				kb.OOMReplans, kb.SpillReplans, kb.SpillPasses)
		}
	}
	if rep != nil {
		fmt.Printf("\n%s", rep)
	}
	if opts.evalQuality {
		if plan.Genomes == nil {
			log.Fatal("-quality requires a preset (truth genomes unknown for external FASTQ)")
		}
		seqs := make([][]byte, len(res.Contigs))
		for i := range res.Contigs {
			seqs[i] = res.Contigs[i].Seq
		}
		qrep, err := quality.Evaluate(seqs, plan.Genomes, quality.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquality vs truth genomes:\n%s", qrep)
	}

	if opts.jsonPath != "" {
		if err := report.Build(res, rep).WriteFile(opts.jsonPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote JSON report to %s\n", opts.jsonPath)
	}

	if opts.dumpLA != "" {
		if err := locassm.DumpWorkloadFile(opts.dumpLA, res.LAWorkload); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dumped local-assembly workload (%d contigs) to %s\n", len(res.LAWorkload), opts.dumpLA)
	}

	if opts.out != "" {
		f, err := os.Create(opts.out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pipeline.WriteFASTAOutputs(f, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote assembly to %s\n", opts.out)
	}
}

func printBreakdown(res *pipeline.Result) {
	total := res.Timings.Total()
	fmt.Printf("\nstage breakdown (measured wall time, cf. Fig 2):\n")
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		d := res.Timings.Wall[s]
		fmt.Printf("  %-18s %12v %6.1f%%\n", s, d.Round(1e6), 100*float64(d)/float64(total))
	}
	fmt.Printf("  %-18s %12v\n", "TOTAL", total.Round(1e6))

	fmt.Printf("\nlocal-assembly bins per round (cf. Fig 3):\n")
	for _, b := range res.Bins {
		t := float64(b.Zero + b.Small + b.Large)
		fmt.Printf("  k=%-3d bin1=%5d (%4.1f%%)  bin2=%5d (%4.1f%%)  bin3=%5d (%4.1f%%)\n",
			b.K, b.Zero, 100*float64(b.Zero)/t, b.Small, 100*float64(b.Small)/t,
			b.Large, 100*float64(b.Large)/t)
	}
}

func printAssemblyStats(res *pipeline.Result) {
	st := report.ComputeAssembly(res)
	fmt.Printf("\nassembly: %d contigs, %d bases, N50 %d, longest %d; %d scaffolds\n",
		st.Contigs, st.Bases, st.N50, st.Longest, st.Scaffolds)
	fmt.Print(histo.FromValues("contig length distribution:", st.Lens).Render(40))
}

func printGPUStats(res *pipeline.Result) {
	fmt.Printf("\nGPU local assembly (simulated V100): model kernel time %v, transfers %v\n",
		res.Work.GPUKernelTime.Round(1e3), res.Work.GPUTransferTime.Round(1e3))
	for _, k := range res.Work.GPUKernels {
		fmt.Printf("  %-26s warps=%6d  instrs=%10d  time=%10v  bound=%s\n",
			k.Kernel, k.Warps, k.TotalWarpInstrs(), k.Time.Round(1e3), k.Bound)
	}
}
