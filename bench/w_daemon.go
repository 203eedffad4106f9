package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/service"
)

const (
	daemonInputs  = 10
	daemonClients = 2
	pollEvery     = 5 * time.Millisecond
	// blockJobs consecutive completions make a block, the unit in which
	// throughput and resource use are sampled. It is one period of the mix,
	// every input with every engine, so that blocks differ by the host's
	// noise and not by what they hold (blocks of ten spread by 15% in
	// alloc_mb, these by under 1%).
	blockJobs = daemonInputs * len(daemonEngines)
	// daemonMinJobs is the fewest jobs a window measures, however short the
	// run: four blocks, and p90 needs a hundred to have ten samples beyond it.
	daemonMinJobs = 4 * blockJobs
)

var daemonEngines = [...]string{locassm.EngineCPU, locassm.EngineGPU, locassm.EngineDist}

// daemon is the service under test with its inputs: an in-process
// scheduler behind an HTTP server, ten small FASTQ files in its data
// directory, and the digest each file must assemble to.
type daemon struct {
	dir    string
	sched  *service.Scheduler
	srv    *httptest.Server
	inputs []*input
	paths  []string
	want   []string // FASTA digest per input
}

func startDaemon(seed int64) (*daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "daemon-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.inputs, err = buildDaemonInputs(seed); err != nil {
		return nil, err
	}
	for i, in := range d.inputs {
		path := filepath.Join(dir, fmt.Sprintf("reads-%d.fastq", i))
		if err := os.WriteFile(path, in.fastq, 0o644); err != nil {
			return nil, err
		}
		d.paths = append(d.paths, path)
	}
	d.sched, err = service.New(service.Config{DataDir: filepath.Join(dir, "data"), Workers: 2, Devices: 2})
	if err != nil {
		return nil, err
	}
	d.sched.Start()
	d.srv = httptest.NewServer(service.NewHandler(d.sched))
	return d, nil
}

func (d *daemon) stop() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.sched.Shutdown(ctx)
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// spec is job j of the mix: inputs cycle with period ten and engines with
// period three, so blockJobs consecutive jobs cover every pairing.
func (d *daemon) spec(j int) service.JobSpec {
	s := service.JobSpec{ReadsPath: d.paths[j%daemonInputs], Rounds: []int{21, 33}, Engine: daemonEngines[j%len(daemonEngines)]}
	if s.Engine == locassm.EngineDist {
		s.Ranks = 2
	}
	return s
}

// jobSample is everything a client saw of one job.
type jobSample struct {
	j                           int
	client                      int
	submitStart, submitEnd      time.Time
	terminal, fetchStart, fetch time.Time
	polls                       []time.Duration
	status                      service.Status
	rejected                    bool
	err                         error
}

func (js *jobSample) latency() float64 { return js.terminal.Sub(js.submitStart).Seconds() }

// do makes one HTTP request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.srv.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runJob submits job j, polls its status until it is terminal, fetches the
// report and the contigs, and checks the contigs against the standalone
// assembly of the same input.
func (d *daemon) runJob(j, client int) jobSample {
	js := jobSample{j: j, client: client}
	body, _ := json.Marshal(d.spec(j))
	js.submitStart = time.Now()
	code, data, err := d.do("POST", "/v1/jobs", body)
	js.submitEnd = time.Now()
	if err != nil {
		js.err = err
		return js
	}
	if code != http.StatusAccepted {
		js.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		js.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		return js
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(data, &accepted); err != nil {
		js.err = err
		return js
	}
	for {
		time.Sleep(pollEvery)
		t0 := time.Now()
		code, data, err := d.do("GET", "/v1/jobs/"+accepted.ID, nil)
		js.polls = append(js.polls, time.Since(t0))
		if err != nil || code != http.StatusOK {
			js.err = fmt.Errorf("status: HTTP %d: %v", code, err)
			return js
		}
		if err := json.Unmarshal(data, &js.status); err != nil {
			js.err = err
			return js
		}
		if js.status.State.Terminal() {
			break
		}
	}
	js.terminal = time.Now()
	if js.status.State != service.StateSucceeded {
		js.err = fmt.Errorf("job %s ended %s: %s", accepted.ID, js.status.State, js.status.Error)
		return js
	}
	js.fetchStart = time.Now()
	code, _, err = d.do("GET", "/v1/jobs/"+accepted.ID+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	var contigs []byte
	if err == nil {
		code, contigs, err = d.do("GET", "/v1/jobs/"+accepted.ID+"/contigs", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("contigs: HTTP %d", code)
		}
	}
	js.fetch = time.Now()
	if err == nil && sha(contigs) != d.want[j%daemonInputs] {
		err = fmt.Errorf("job %s (%s engine) contigs differ from the standalone assembly of input %d",
			accepted.ID, js.status.Spec.Engine, j%daemonInputs)
	}
	js.err = err
	return js
}

// mark is a reading of the process's resource counters at a block boundary.
type mark struct {
	at      time.Time
	cpu     float64
	alloc   uint64
	peakMB  float64 // resident-set peak since the previous mark; 0 when the mark cannot be restarted
	numGC   uint32
	pauseNS uint64
}

func readMark(peakReset bool) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{at: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
	if peakReset {
		m.peakMB = peakRSSMB()
		// settle has written this file once; a failure now would only let
		// the next block read this block's peak again.
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
	return m
}

// window is one measured stretch of the closed loop: the jobs in the order
// they completed, and a mark before the first job and after every
// blockJobs-th completion. The stretches between marks are the window's
// blocks; what is left after the last mark belongs to no block.
type window struct {
	jobs  []jobSample
	marks []mark
}

// loop runs daemonClients closed-loop clients: each submits a job, waits
// for it, fetches its outputs, and only then submits the next. Jobs are
// handed out until daemonMinJobs have been and the given time has passed;
// those in flight then run to completion. The host probe runs four times
// before and four times after, not in between, where it would compete with
// the jobs.
func (r *run) loop(d *daemon, seconds float64) window {
	probe := func() {
		for i := 0; i < 4; i++ {
			r.probeHost()
		}
	}
	probe()
	defer probe()
	peakReset := settle()
	var mu sync.Mutex
	w := window{marks: []mark{readMark(peakReset)}}
	start := time.Now()
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				mu.Unlock()
				if j >= daemonMinJobs && time.Since(start).Seconds() >= seconds {
					return
				}
				js := d.runJob(j, c)
				mu.Lock()
				w.jobs = append(w.jobs, js)
				if len(w.jobs)%blockJobs == 0 {
					w.marks = append(w.marks, readMark(peakReset))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return w
}

// tally counts the window's jobs into the run and returns the latencies of
// the ones that completed and verified.
func (r *run) tally(w *window) (latencies []float64, rejected int) {
	for i := range w.jobs {
		js := &w.jobs[i]
		r.attempted++
		if js.rejected {
			rejected++
		}
		if js.err != nil {
			r.failed++
			r.logf("job %d: %v", js.j, js.err)
			continue
		}
		latencies = append(latencies, js.latency())
	}
	return latencies, rejected
}

// endToEnd turns the untraced window into the end-to-end metrics. The
// latency percentiles are over all its jobs. Everything else is sampled per
// block, so that each median comes with quartiles that show how far the
// host's noise moves it: on this workload an op is a job, wall_s is the mean
// submit→terminal latency of a block's jobs, cpu_s and alloc_mb are a block's
// totals per job.
func (r *run) endToEnd(d *daemon, w *window, lat []float64) {
	r.setStat("job_p50_s", quantileEstimate(lat, 0.50))
	r.setStat("job_p90_s", quantileEstimate(lat, 0.90))
	for b := 1; b < len(w.marks); b++ {
		m0, m1 := w.marks[b-1], w.marks[b]
		wall := m1.at.Sub(m0.at)
		var latSum float64
		var bases int64
		done := 0
		for _, js := range w.jobs[(b-1)*blockJobs : b*blockJobs] {
			if js.err == nil {
				latSum += js.latency()
				bases += d.inputs[js.j%daemonInputs].bases
				done++
			}
		}
		if done == 0 {
			continue
		}
		r.add("wall_s", latSum/float64(done))
		r.add("cpu_s", (m1.cpu-m0.cpu)/float64(blockJobs))
		r.add("alloc_mb", float64(m1.alloc-m0.alloc)/1e6/float64(blockJobs))
		r.add("jobs_per_min", float64(done)/wall.Minutes())
		r.add("mbases_per_s", float64(bases)/wall.Seconds()/1e6)
		if m1.peakMB > 0 {
			r.add("peak_rss_mb", m1.peakMB)
		}
	}
}

// runDaemon drives the job daemon over HTTP with a mix of engines.
func runDaemon(r *run) error {
	var d *daemon
	stop := func() error {
		err := d.stop()
		d = nil
		return err
	}
	defer func() {
		if d != nil {
			if err := stop(); err != nil {
				r.logf("stopping the daemon: %v", err)
			}
		}
	}()
	if err := r.timeSetup(func() (err error) {
		d, err = startDaemon(r.seed)
		return err
	}, stop); err != nil {
		return err
	}
	for _, in := range d.inputs {
		r.pairs += in.pairs
		r.bases += in.bases
	}
	r.sha = daemonInputsDigest(d.inputs)
	if err := checkPin(r.seed, wDaemon+".fastq", r.sha); err != nil {
		return err
	}

	// The standalone assembly of each input, through the same spec →
	// config translation the daemon uses. Every engine yields the same
	// bytes, so one cpu-engine reference per input checks all three.
	for i := 0; i < daemonInputs; i++ {
		pairs, cfg, err := service.BuildInput(service.JobSpec{ReadsPath: d.paths[i], Rounds: []int{21, 33}})
		if err != nil {
			return err
		}
		res, err := pipeline.Run(pairs, cfg)
		if err != nil {
			return fmt.Errorf("standalone reference %d: %w", i, err)
		}
		digest, err := fastaDigest(res)
		if err != nil {
			return err
		}
		d.want = append(d.want, digest)
	}

	// Warm-up: one discarded job per engine.
	for j := range daemonEngines {
		if js := d.runJob(j, 0); js.err != nil {
			return fmt.Errorf("warm-up job: %w", js.err)
		}
	}

	// The untraced window is the same with tracing on or off, so a metric
	// means one thing whichever run printed it.
	w := r.loop(d, r.seconds)
	lat, rejected := r.tally(&w)
	if tailPercentile(len(lat)) < 0.90 {
		// So many jobs failed (and have been counted) that p90 has not ten
		// samples beyond it: the run reports no metrics rather than a
		// percentile under the wrong name.
		return nil
	}
	r.endToEnd(d, &w, lat)
	if !r.trace {
		return nil
	}

	tw := r.loop(d, r.seconds)
	tlat, trej := r.tally(&tw)
	r.set("service.rejected", float64(rejected+trej))
	if len(tlat) > 0 {
		r.set("host.trace_overhead_frac", median(tlat)/median(lat)-1)
	}
	for i := range tw.jobs {
		js := &tw.jobs[i]
		if js.err != nil {
			continue
		}
		st := &js.status
		op := fmt.Sprintf("job%d", js.j)
		root := r.rec.add("job", op, -1, js.client, js.submitStart, js.fetch)
		r.rec.add("service.submit", op, root, js.client, js.submitStart, js.submitEnd)
		r.rec.add("service.queue_wait", op, root, js.client, st.SubmitTime, st.StartTime)
		runSpan := r.rec.add("service.run", op, root, js.client, st.StartTime, st.FinishTime)
		// Stage children rebuilt from stages_ns: the stages of all rounds
		// summed per category, laid end to end from the run's start.
		at := st.StartTime
		for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
			if ns := st.StagesNS[s.String()]; ns > 0 {
				end := at.Add(time.Duration(ns))
				r.rec.add(stageSlug[s], op, runSpan, js.client, at, end)
				at = end
			}
		}
		r.rec.add("service.result_fetch", op, root, js.client, js.fetchStart, js.fetch)

		r.add("service.submit_us_p50", float64(js.submitEnd.Sub(js.submitStart).Microseconds()))
		r.add("service.queue_wait_p50_s", float64(st.QueueWaitNS)/1e9)
		r.add("service.device_wait_p50_s", float64(st.DeviceWaitNS)/1e9)
		r.add("service.run_p50_s", st.FinishTime.Sub(st.StartTime).Seconds())
		for _, p := range js.polls {
			r.add("service.status_poll_us_p50", float64(p.Nanoseconds())/1e3)
		}
		r.add("service.result_fetch_ms_p50", float64(js.fetch.Sub(js.fetchStart).Nanoseconds())/1e6)
		r.add("service.stage_kmer_analysis_p50_s", float64(st.StagesNS[pipeline.StageKmerAnalysis.String()])/1e9)
		r.add("service.stage_file_io_p50_s", float64(st.StagesNS[pipeline.StageFileIO.String()])/1e9)
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if code, _, err := d.do("GET", "/metrics", nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("GET /metrics: HTTP %d: %v", code, err)
		}
		r.add("service.metrics_render_us", float64(time.Since(t0).Nanoseconds())/1e3)
	}
	// Per block of the traced window here, per traced op on the batch
	// workloads.
	for b := 1; b < len(tw.marks); b++ {
		r.add("host.num_gc", float64(tw.marks[b].numGC-tw.marks[b-1].numGC))
		r.add("host.gc_pause_ms", float64(tw.marks[b].pauseNS-tw.marks[b-1].pauseNS)/1e6)
	}
	return nil
}
