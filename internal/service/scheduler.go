package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mhm2sim/internal/atomicfile"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/simt"
)

// Admission errors — the HTTP layer maps both to 429 Too Many Requests.
var (
	// ErrQueueFull: the bounded job queue is at capacity (backpressure).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrQuotaExceeded: the tenant already has its maximum jobs admitted.
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
	// ErrDraining: the scheduler is shutting down (HTTP 503).
	ErrDraining = errors.New("service: scheduler is draining")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotReady: the job has no result yet (HTTP 409).
	ErrNotReady = errors.New("service: job has no result yet")
)

// Config parameterizes the scheduler.
type Config struct {
	// DataDir is the persistence root (specs, checkpoints, results). It is
	// created if missing; a restart over the same directory resumes
	// unfinished jobs from their checkpoints.
	DataDir string
	// Workers is the number of concurrently executing jobs (default 4).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submissions beyond
	// it are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// TenantMaxActive caps one tenant's admitted-but-unfinished jobs
	// (queued + running); 0 means no quota.
	TenantMaxActive int
	// Devices is the shared GPU pool size (default 4), each a simt.V100().
	Devices int
	// JobRetries is how many times a job failing with dist.ErrUnrecoverable
	// (an injected-chaos budget exhaustion) is retried under a reseeded
	// fault plan before being marked failed (default 1).
	JobRetries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Devices < 0 {
		c.Devices = 0
	} else if c.Devices == 0 {
		c.Devices = 4
	}
	if c.JobRetries == 0 {
		c.JobRetries = 1
	}
	return c
}

// job is the scheduler's record of one job: its externally visible Status
// (guarded by the scheduler mutex; Status and List hand out copies) plus the
// handle that cancels it while it runs.
type job struct {
	Status
	cancel    context.CancelFunc // non-nil while running
	finishing bool               // canceled while queued, terminal status being written
}

// Scheduler is the job scheduler over the assembly engines: a bounded queue
// feeding a fixed worker pool, with a shared device pool and per-tenant
// accounting. See the package comment for the architecture.
type Scheduler struct {
	cfg  Config
	pool *DevicePool
	met  *Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // submission order, for List
	active   map[string]int // tenant → queued+running
	queued   int            // jobs admitted but not yet picked by a worker
	running  int
	nextID   int
	draining bool

	queue chan *job
	wg    sync.WaitGroup

	persistHook func(Status) // tests only: runs before each terminal status write
}

// New builds a scheduler over cfg.DataDir, loading persisted jobs:
// finished jobs are served from their terminal status, unfinished ones are
// re-queued to resume from their checkpoints. Call Start to begin
// executing.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, jobsDir), 0o755); err != nil {
		return nil, err
	}
	loaded, next, err := loadJobs(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		pool:       NewDevicePool(cfg.Devices, simt.V100()),
		met:        NewMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		active:     make(map[string]int),
		nextID:     next,
		// Capacity covers the configured depth plus every re-queued job, so
		// startup re-admission can never block or drop.
		queue: make(chan *job, cfg.QueueDepth+len(loaded)),
	}
	for _, lj := range loaded {
		j := &job{}
		if lj.Done != nil {
			j.Status = *lj.Done
		} else {
			j.Status = Status{ID: lj.ID, Spec: lj.Spec.withDefaults(), State: StateQueued, SubmitTime: time.Now()}
			s.active[j.Spec.Tenant]++
			s.queued++
			s.queue <- j
		}
		s.jobs[lj.ID] = j
		s.order = append(s.order, lj.ID)
	}
	return s, nil
}

// Resumable returns how many loaded jobs were re-queued at startup.
func (s *Scheduler) Resumable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Start launches the worker pool.
func (s *Scheduler) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ctr := new(dbg.Counter) // the k-mer memory of every job this worker runs
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case j := <-s.queue:
					s.runJob(j, ctr)
				}
			}
		}()
	}
}

// Submit admits a job: it validates the spec, enforces the tenant quota
// and the bounded queue, persists the spec, and enqueues. The returned ID
// is stable across daemon restarts.
func (s *Scheduler) Submit(spec JobSpec) (string, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	if spec.MemBudget > 0 {
		// Only the input tells whether the budget plans a bounded number
		// of counting passes, so a budget job's input is loaded here too.
		if _, err := NewPlan(spec); err != nil {
			return "", err
		}
	}
	if d := spec.DeviceDemand(); d > s.pool.Size() {
		return "", fmt.Errorf("service: job needs %d devices, pool has %d", d, s.pool.Size())
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if s.cfg.TenantMaxActive > 0 && s.active[spec.Tenant] >= s.cfg.TenantMaxActive {
		s.mu.Unlock()
		s.met.Add("mhm2d_jobs_rejected_total", 1, "tenant", spec.Tenant, "reason", "quota")
		return "", fmt.Errorf("%w: tenant %q has %d active jobs (max %d)",
			ErrQuotaExceeded, spec.Tenant, s.cfg.TenantMaxActive, s.cfg.TenantMaxActive)
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.Add("mhm2d_jobs_rejected_total", 1, "tenant", spec.Tenant, "reason", "queue_full")
		return "", fmt.Errorf("%w: %d jobs queued (max %d)", ErrQueueFull, s.cfg.QueueDepth, s.cfg.QueueDepth)
	}
	id := formatJobID(s.nextID)
	s.nextID++
	j := &job{Status: Status{ID: id, Spec: spec, State: StateQueued, SubmitTime: time.Now()}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.active[spec.Tenant]++
	s.queued++
	s.mu.Unlock()

	if err := saveSpec(s.cfg.DataDir, id, spec); err != nil {
		// Roll the admission back: a job we cannot persist cannot be
		// resumed, so refuse it outright.
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.active[spec.Tenant]--
		s.queued--
		s.mu.Unlock()
		return "", err
	}
	s.met.Add("mhm2d_jobs_submitted_total", 1, "tenant", spec.Tenant)
	s.queue <- j
	return id, nil
}

// Status snapshots one job.
func (s *Scheduler) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.Status, nil
}

// List snapshots all jobs in submission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status)
	}
	return out
}

// succeededDir returns the directory of a job that has succeeded — where
// its report and FASTA are.
func (s *Scheduler) succeededDir(id string) (string, error) {
	st, err := s.Status(id)
	if err != nil {
		return "", err
	}
	if st.State != StateSucceeded {
		return "", fmt.Errorf("%w (state %s)", ErrNotReady, st.State)
	}
	return jobDir(s.cfg.DataDir, id), nil
}

// Result loads a finished job's persisted report.
func (s *Scheduler) Result(id string) (*report.Report, error) {
	dir, err := s.succeededDir(id)
	if err != nil {
		return nil, err
	}
	return report.Load(filepath.Join(dir, resultFile))
}

// OutputPath returns the finished job's FASTA path.
func (s *Scheduler) OutputPath(id string) (string, error) {
	dir, err := s.succeededDir(id)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, outputFile), nil
}

// Cancel cancels a job: queued jobs are marked canceled and skipped when
// dequeued; running jobs have their context canceled and stop at the next
// stage boundary. Canceling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch j.State {
	case StateQueued:
		claimed := !j.finishing // a concurrent Cancel may be finishing it
		j.finishing = true
		s.mu.Unlock()
		if claimed {
			s.finish(j, StateCanceled, "canceled while queued")
		}
		return nil
	case StateRunning:
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// finish moves a job to a terminal state. It writes the terminal status
// first and only then publishes it under the mutex, so whoever sees the job
// terminal — a client, a restarted daemon — finds its status.json on disk.
// A job canceled while queued keeps its queue slot counted until a worker
// drains the stale channel entry — otherwise the admission counter and the
// channel occupancy diverge and a later Submit blocks on a full channel.
func (s *Scheduler) finish(j *job, state State, errMsg string) {
	s.mu.Lock()
	st := j.Status
	s.mu.Unlock()
	st.State, st.Error, st.FinishTime = state, errMsg, time.Now()
	s.persistTerminal(st)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.Status = st
	tenant := j.Spec.Tenant
	s.active[tenant]--
	var run time.Duration
	if !j.StartTime.IsZero() {
		run = j.FinishTime.Sub(j.StartTime)
	}
	s.met.Add("mhm2d_jobs_finished_total", 1, "tenant", tenant, "state", string(state))
	s.met.Add("mhm2d_queue_wait_seconds_total", float64(j.QueueWaitNS), "tenant", tenant)
	s.met.Add("mhm2d_run_seconds_total", float64(run), "tenant", tenant)
}

// persistTerminal writes the terminal status file (best effort: a write
// failure only costs the record across a restart, where the job would
// re-run).
func (s *Scheduler) persistTerminal(st Status) {
	if s.persistHook != nil {
		s.persistHook(st)
	}
	_ = saveStatus(s.cfg.DataDir, st)
}

// runJob executes one dequeued job: lease devices, run the pipeline with
// per-job checkpointing and the worker's Counter, persist the result, and
// account everything.
func (s *Scheduler) runJob(j *job, ctr *dbg.Counter) {
	// Claim the job before touching the device pool: once it is
	// StateRunning, every cancellation — client or shutdown — flows through
	// the job context, including a cancel that lands while we are still
	// blocked waiting for devices.
	s.mu.Lock()
	if j.State != StateQueued || j.finishing { // canceled while queued: drain the slot
		s.queued--
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.cancel = cancel
	j.State = StateRunning
	s.queued--
	s.running++
	demand := j.Spec.DeviceDemand()
	s.mu.Unlock()

	tAcq := time.Now()
	lease, err := s.pool.Acquire(ctx, demand)
	if err != nil {
		s.settle(j, nil, nil, err)
		return
	}

	s.mu.Lock()
	// The device lease is part of queue wait: the job's own work has not
	// started until it holds its devices.
	j.StartTime = time.Now()
	j.QueueWaitNS = int64(j.StartTime.Sub(j.SubmitTime))
	j.DeviceWaitNS = int64(j.StartTime.Sub(tAcq))
	j.Devices = demand
	s.mu.Unlock()

	res, rep, runErr := s.executeWithRetry(ctx, j, lease, ctr)
	lease.Release() // before settle: whoever sees the job terminal sees its devices back
	s.mu.Lock()
	j.DeviceHeldNS = int64(time.Since(j.StartTime))
	s.mu.Unlock()
	s.settle(j, res, rep, runErr)
}

// settle moves a finished (or interrupted) execution to its final state
// and persists the outcome.
func (s *Scheduler) settle(j *job, res *pipeline.Result, rep *dist.Report, runErr error) {
	s.mu.Lock()
	j.cancel = nil
	s.running--
	s.mu.Unlock()

	state := StateFailed
	switch {
	case runErr == nil:
		if kb := res.Work.KmerBudget; kb.Passes > 0 {
			s.met.Add("mhm2d_kmer_budget_passes_total", float64(kb.Passes))
			s.met.Add("mhm2d_kmer_filtered_singletons_total", float64(kb.FilteredSingletons))
			s.met.Add("mhm2d_kmer_oom_replans_total", float64(kb.OOMReplans))
		}
		state = StateSucceeded
		if err := s.persistResult(j, res, rep); err != nil {
			state, runErr = StateFailed, err
		}
	case errors.Is(runErr, context.Canceled):
		if s.baseCtx.Err() != nil {
			// Daemon shutdown, not a client cancel: leave the job
			// non-terminal so a restart re-queues and resumes it.
			s.interrupted(j, runErr)
			return
		}
		state = StateCanceled
	}
	errMsg := ""
	if runErr != nil {
		errMsg = runErr.Error()
	}
	s.finish(j, state, errMsg)
}

// interrupted handles a job stopped by daemon shutdown (or a lease aborted
// by it): the job stays conceptually queued — its spec is persisted and a
// restart resumes it from checkpoints. A client cancel that raced shutdown
// is indistinguishable here and also resumes, which is the safe direction.
// The caller has already settled the running counter; only the state and
// queued count move here.
func (s *Scheduler) interrupted(j *job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	if j.State == StateRunning {
		j.State = StateQueued
		s.queued++
	}
	j.Error = fmt.Sprintf("interrupted (will resume on restart): %v", err)
}

// executeWithRetry runs the pipeline, retrying jobs killed by an
// unrecoverable injected fault under a reseeded plan — the job-level
// recovery tier above internal/faults' in-run recovery. Each attempt
// resumes from the job's checkpoint directory, so completed rounds are
// never recomputed.
func (s *Scheduler) executeWithRetry(ctx context.Context, j *job, lease *Lease, ctr *dbg.Counter) (*pipeline.Result, *dist.Report, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.JobRetries; attempt++ {
		res, rep, err := s.execute(ctx, j, lease, ctr, attempt)
		if err == nil || !errors.Is(err, dist.ErrUnrecoverable) || ctx.Err() != nil {
			return res, rep, err
		}
		lastErr = err
		if attempt < s.cfg.JobRetries {
			s.met.Add("mhm2d_job_retries_total", 1)
			lease.replaceLost()
		}
	}
	return nil, nil, lastErr
}

// attemptPlan plans attempt k of a job: its spec with the fault seed moved
// by k. Deterministic plans fail deterministically, so a retry must draw a
// fresh schedule, as a real rerun lands on different timing.
func attemptPlan(spec JobSpec, attempt int) (*Plan, error) {
	spec.FaultSeed += int64(attempt)
	return NewPlan(spec)
}

// execute runs one attempt of the job: plan the spec, attach the
// scheduler's host-side settings (checkpoint dir, observer, the lease as the
// run's device source, the worker's Counter), run.
func (s *Scheduler) execute(ctx context.Context, j *job, lease *Lease, ctr *dbg.Counter, attempt int) (*pipeline.Result, *dist.Report, error) {
	plan, err := attemptPlan(j.Spec, attempt)
	if err != nil {
		return nil, nil, err
	}
	ckpt := filepath.Join(jobDir(s.cfg.DataDir, j.ID), ckptDir)
	plan.Pipeline.CheckpointDir = ckpt
	if resumed, err := pipeline.HasCheckpoint(ckpt); err != nil {
		return nil, nil, err
	} else if resumed {
		s.met.Add("mhm2d_job_resumes_total", 1)
		s.mu.Lock()
		j.Resumes++
		s.mu.Unlock()
	}
	stages := make(map[string]time.Duration)
	plan.Pipeline.Observer = &stageObserver{met: s.met, stages: stages}

	s.mu.Lock()
	j.Attempts++
	s.mu.Unlock()

	// The job computes on the devices it leased and counts k-mers in its
	// worker's memory, whatever its engine.
	draw, releaseGrown := lease.source()
	defer releaseGrown()
	plan.Pipeline.Engine.Devices, plan.Pipeline.Counter = draw, ctr
	res, rep, err := plan.Run(ctx)
	if rep != nil {
		s.met.Add("mhm2d_elastic_joins_total", float64(rep.Elasticity.Joins))
		s.met.Add("mhm2d_stolen_batches_total", float64(rep.Elasticity.StolenBatches))
	}
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	j.StagesNS = stages
	s.mu.Unlock()
	return res, rep, nil
}

// persistResult writes the job's report and FASTA output, each atomically.
func (s *Scheduler) persistResult(j *job, res *pipeline.Result, rep *dist.Report) error {
	dir := jobDir(s.cfg.DataDir, j.ID)
	if err := report.Build(res, rep).WriteFile(filepath.Join(dir, resultFile)); err != nil {
		return err
	}
	_, err := atomicfile.Write(filepath.Join(dir, outputFile), func(w io.Writer) error {
		return pipeline.WriteFASTAOutputs(w, res)
	})
	return err
}

// RenderMetrics writes the /metrics exposition.
func (s *Scheduler) RenderMetrics(w io.Writer) {
	pool := s.pool.Stats()
	s.mu.Lock()
	live := map[string]float64{
		"mhm2d_queue_depth":               float64(s.queued),
		"mhm2d_jobs_running":              float64(s.running),
		"mhm2d_devices":                   float64(pool.Size),
		"mhm2d_devices_leased":            float64(pool.Leased),
		"mhm2d_device_leases_total":       float64(pool.Leases),
		"mhm2d_device_busy_seconds_total": float64(pool.BusyNS),
		"mhm2d_device_wait_seconds_total": float64(pool.WaitNS),
	}
	s.mu.Unlock()
	s.met.Render(w, live)
}

// Shutdown stops the scheduler: no new admissions, running jobs are
// canceled at their next stage boundary (their checkpoints survive), workers
// are joined and the device pool is closed. Queued and interrupted jobs stay
// persisted as unfinished, so a new Scheduler over the same DataDir resumes
// them.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.pool.Close() // every lease is back
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown timed out: %w", ctx.Err())
	}
}
