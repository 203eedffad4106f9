package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/quality"
	"mhm2sim/internal/report"
)

// run is one execution of one workload: the arguments the driver passed,
// the samples collected, and the op tally.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int

	rec     *recorder // non-nil only when trace is on
	samples map[string][]float64
	// stats holds the metrics whose summary is not the median and quartiles
	// of samples (a latency percentile and its interval).
	stats map[string]stat
	// attempted/failed count measured ops (or jobs); a failed op is one
	// that returned an error, was refused, or produced the wrong output.
	attempted, failed int
	// probeErr is the first error of a layer probe; later probes are
	// skipped and the workload returns it.
	probeErr error
	// broken collects failed checks that are not tied to one op (a parity
	// check across engines, a quality floor).
	broken []string

	pairs int   // input size, printed beside the throughput
	bases int64 // bases handed to one op
	sha   string
}

func (r *run) add(name string, v float64) {
	if lookupMetric(name) == nil {
		panic("bench: sample for a metric that is not in the catalog: " + name)
	}
	r.samples[name] = append(r.samples[name], v)
}

// set records a single-valued metric, replacing earlier samples.
func (r *run) set(name string, v float64) {
	delete(r.samples, name)
	r.add(name, v)
}

// setStat records a metric together with its ready-made summary.
func (r *run) setStat(name string, s stat) {
	r.set(name, s.Median)
	r.stats[name] = s
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", r.workload, msg)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %s: "+format+"\n", append([]any{r.workload}, args...)...)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settle collects garbage, returns the freed memory to the OS and restarts
// the kernel's resident-set high-water mark (getrusage's ru_maxrss), so
// that the next peak read is the peak of what runs next. It reports
// whether the mark could be restarted; where /proc/self/clear_refs cannot
// be written the only peak there is is that of the whole process.
func settle() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// probeHost times a fixed computation that belongs to the benchmark and not
// to the program: on every core the run uses, a chain of dependent loads
// scattered over 8 MiB. No change to the program can move it, so when it
// reads differently in two runs the host was in a different state (the
// hypervisor took cores away, a neighbour filled the shared cache) and a
// difference in host time between those runs shows nothing. It runs before
// every op; settle then returns its buffers.
func (r *run) probeHost() {
	const words = 1 << 20 // 8 MiB per core, twice a core's L2
	const steps = 1 << 18
	bufs := make([][]uint64, r.workers)
	for i := range bufs {
		bufs[i] = make([]uint64, words)
		for j := 0; j < words; j += 512 { // fault every page in before the clock starts
			bufs[i][j] = 0
		}
	}
	var sink atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range bufs {
		wg.Add(1)
		go func(buf []uint64, x uint64) {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				x = x*6364136223846793005 + 1442695040888963407 + buf[(x>>33)&(words-1)]
			}
			sink.Add(x)
		}(bufs[i], uint64(i+1))
	}
	wg.Wait()
	r.add(hostProbe, float64(time.Since(t0).Nanoseconds())/1e6)
}

// timeSetup times the workload's set-up and leaves the last one standing.
// Input generation takes tens of milliseconds and one such timing is good
// to a fifth at best, so a sample is the mean over a batch of set-ups that
// lasts a quarter of a second or more, and batches repeat until two seconds
// have gone: at most eight samples. The la_dump capture, seconds long, runs
// once. undo, when not
// nil, takes the previous set-up down before the next, outside the timing.
func (r *run) timeSetup(setup, undo func() error) error {
	var spent time.Duration
	for spent < 2*time.Second {
		var batch time.Duration
		n := 0
		for ; batch < 250*time.Millisecond; n++ {
			if undo != nil && (n > 0 || spent > 0) {
				if err := undo(); err != nil {
					return fmt.Errorf("undoing set-up: %w", err)
				}
			}
			t0 := time.Now()
			if err := setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			batch += time.Since(t0)
		}
		spent += batch
		r.add("setup_s", batch.Seconds()/float64(n))
	}
	return nil
}

// opFunc performs one op of a batch workload and returns a digest of its
// output. rec is nil for an untraced op; a traced op records its spans
// under the given op id with parent as the enclosing span.
type opFunc func(rec *recorder, op string, parent int) (digest string, err error)

// opSample is what the benchmark observes around one op from outside.
type opSample struct {
	wall, cpu, allocMB float64
	peakMB             float64 // 0 when the high-water mark cannot be restarted
	numGC              uint32
	gcPauseMS          float64
	digest             string
	ok                 bool
}

func (r *run) observe(op opFunc, rec *recorder, id, want string) opSample {
	// Every op starts as it would in a process of its own, from a
	// collected heap handed back to the OS: what the previous op left
	// behind is not this op's to sweep, when the collector first runs does
	// not depend on the op before, and the resident-set peak is this op's.
	r.probeHost()
	peakReset := settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	root := rec.begin("op", id, -1, 0)
	t0 := time.Now()
	digest, err := op(rec, id, root)
	wall := time.Since(t0)
	rec.end(root)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	s := opSample{
		wall: wall.Seconds(), cpu: c1 - c0,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		numGC:     m1.NumGC - m0.NumGC,
		gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		digest:    digest,
		ok:        true,
	}
	if peakReset {
		s.peakMB = peakRSSMB()
	}
	switch {
	case err != nil:
		r.logf("op %s failed: %v", id, err)
		s.ok = false
	case want != "" && digest != want:
		r.logf("op %s produced digest %s, want %s", id, digest, want)
		s.ok = false
	}
	return s
}

// spanAlias maps the spans whose self time is reported under a name other
// than the span's own plus "_s" — above all, what is left of the Run call
// once the stage spans are taken out.
var spanAlias = map[string]string{
	"pipeline.run": "pipeline.residual_s",
	"dist.run":     "pipeline.residual_s",
	"locassm.gpu":  "locassm.gpu_host_s",
}

// measure is the closed loop of a batch workload: one discarded warm-up op,
// then measured ops one at a time until r.seconds have passed (never fewer
// than three). Every op's digest must equal want, or the warm-up op's when
// the workload has no second implementation to take a reference from. With
// tracing on, traced
// ops alternate with untraced ones: end-to-end samples come only from the
// untraced ops, per-layer span times only from the traced ones, and the
// ratio of the two medians is the tracing overhead.
func (r *run) measure(op opFunc, want string) {
	cold := r.observe(op, nil, "warmup", want)
	if want == "" {
		want = cold.digest
	}
	if r.trace && lookupMetric("pipeline.cold_wall_s").on(r.workload) {
		r.set("pipeline.cold_wall_s", cold.wall)
	}
	var tracedWall []float64
	start := time.Now()
	for n := 0; n < 3 || time.Since(start).Seconds() < r.seconds; n++ {
		s := r.observe(op, nil, fmt.Sprintf("op%d", n), want)
		r.attempted++
		if !s.ok {
			r.failed++
			continue
		}
		r.add("wall_s", s.wall)
		r.add("cpu_s", s.cpu)
		r.add("alloc_mb", s.allocMB)
		if s.peakMB > 0 {
			r.add("peak_rss_mb", s.peakMB)
		}
		r.add("mbases_per_s", float64(r.bases)/s.wall/1e6)
		if !r.trace {
			continue
		}
		id := fmt.Sprintf("traced%d", n)
		ts := r.observe(op, r.rec, id, want)
		r.attempted++
		if !ts.ok {
			r.failed++
			continue
		}
		tracedWall = append(tracedWall, ts.wall)
		r.add("host.num_gc", float64(ts.numGC))
		r.add("host.gc_pause_ms", ts.gcPauseMS)
		for name, d := range selfTimes(r.rec.spans, id) {
			metric, aliased := spanAlias[name]
			if !aliased {
				metric = name + "_s"
			}
			if def := lookupMetric(metric); def != nil && def.on(r.workload) {
				r.add(metric, d.Seconds())
			}
		}
	}
	if len(tracedWall) > 0 && len(r.samples["wall_s"]) > 0 {
		r.set("host.trace_overhead_frac", median(tracedWall)/median(r.samples["wall_s"])-1)
	}
}

// stageSlug names the stage spans after the Fig 2 categories.
var stageSlug = map[pipeline.Stage]string{
	pipeline.StageMergeReads:    "pipeline.merge_reads",
	pipeline.StageKmerAnalysis:  "pipeline.kmer_analysis",
	pipeline.StageContigGen:     "pipeline.contig_gen",
	pipeline.StageAlignment:     "pipeline.alignment",
	pipeline.StageLocalAssembly: "pipeline.local_assembly",
	pipeline.StageScaffolding:   "pipeline.scaffolding",
	pipeline.StageFileIO:        "pipeline.file_io",
}

// stageObserver is the benchmark's pipeline.Observer: one span per stage
// execution, nested under the span of the Run call. It uses the driver's
// callbacks, never Result.Timings, because the alignment stage's own
// split of wall time can record zero.
type stageObserver struct {
	rec    *recorder
	op     string
	parent int
	open   int
}

func (o *stageObserver) StageStart(ev pipeline.StageEvent) {
	o.open = o.rec.begin(stageSlug[ev.Stage], o.op, o.parent, 0)
}

func (o *stageObserver) StageFinish(pipeline.StageEvent, time.Duration, pipeline.Timings, pipeline.WorkRecord) {
	o.rec.end(o.open)
}

// assembly is what one assembling op leaves behind for the checks and the
// counts that follow the loop.
type assembly struct {
	res   *pipeline.Result
	rep   *dist.Report
	fasta []byte
}

// assembleOp builds the op shared by the three pipeline workloads: parse
// the interleaved FASTQ, assemble, write the FASTA and the JSON report. The
// digest is that of the FASTA bytes. runName is the span around the
// assembling call ("pipeline.run" or "dist.run"); assemble receives the
// observer to attach (nil when untraced).
func (r *run) assembleOp(fastq []byte, runName string, last *assembly,
	assemble func(pairs []dna.PairedRead, obs pipeline.Observer) (*pipeline.Result, *dist.Report, error)) opFunc {
	return func(rec *recorder, op string, parent int) (string, error) {
		var pairs []dna.PairedRead
		parseS, err := rec.do("dna.fastq_parse", op, parent, func(int) (err error) {
			pairs, err = dna.ReadInterleavedPairs(bytes.NewReader(fastq))
			return err
		})
		if err != nil {
			return "", err
		}
		var res *pipeline.Result
		var rep *dist.Report
		runS, err := rec.do(runName, op, parent, func(id int) (err error) {
			var obs pipeline.Observer
			if rec != nil {
				obs = &stageObserver{rec: rec, op: op, parent: id}
			}
			res, rep, err = assemble(pairs, obs)
			return err
		})
		if err != nil {
			return "", err
		}
		var fasta bytes.Buffer
		writeS, err := rec.do("dna.fasta_write", op, parent, func(int) error {
			return pipeline.WriteFASTAOutputs(&fasta, res)
		})
		if err != nil {
			return "", err
		}
		var repBytes countWriter
		repS, err := rec.do("report.build_encode", op, parent, func(int) error {
			return report.Build(res, rep).Encode(&repBytes)
		})
		if err != nil {
			return "", err
		}
		if rec != nil {
			if lookupMetric("dna.fastq_parse_mb_per_s").on(r.workload) {
				r.add("dna.fastq_parse_mb_per_s", float64(len(fastq))/parseS/1e6)
				r.add("dna.fasta_write_mb_per_s", float64(fasta.Len())/writeS/1e6)
			}
			if lookupMetric("dist.host_wall_s").on(r.workload) {
				r.add("dist.host_wall_s", runS)
			}
			r.add("report.build_encode_ms", repS*1e3)
			r.set("report.bytes", float64(repBytes))
		}
		*last = assembly{res: res, rep: rep, fasta: fasta.Bytes()}
		return sha(fasta.Bytes()), nil
	}
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// fastaDigest is the reference side of an output check.
func fastaDigest(res *pipeline.Result) (string, error) {
	h := sha256.New()
	if err := pipeline.WriteFASTAOutputs(h, res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// assemblyQuality evaluates the last assembly against the truth genomes
// and enforces the floor every pipeline workload must clear.
func (r *run) assemblyQuality(a *assembly, in *input) error {
	seqs := make([][]byte, len(a.res.Contigs))
	for i := range a.res.Contigs {
		seqs[i] = a.res.Contigs[i].Seq
	}
	q, err := quality.Evaluate(seqs, in.genomes(), quality.DefaultConfig())
	if err != nil {
		return fmt.Errorf("quality.Evaluate: %w", err)
	}
	r.set("genome_fraction_pct", 100*q.GenomeFraction)
	r.set("ng50_bp", float64(q.Contigs.NG50))
	if 100*q.GenomeFraction < 80 {
		r.fail("genome fraction %.1f%% is below the 80%% floor", 100*q.GenomeFraction)
	}
	if r.trace {
		r.set("pipeline.kmer_occurrences", float64(a.res.Work.KmerOccurrences))
		r.set("pipeline.contigs", float64(len(a.res.Contigs)))
	}
	return nil
}

// pipelineConfig is the configuration of every assembling op: the CLI's
// defaults (insert size estimated from the data) with the worker count
// pinned.
func (r *run) pipelineConfig(rounds ...int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Rounds = rounds
	cfg.EstimateInsert = true
	cfg.Workers = r.workers
	return cfg
}
