// Package service turns the assembly pipeline into a schedulable workload:
// a long-running job scheduler (the core of the mhm2d daemon) that accepts
// many concurrent assembly jobs, admits them against a bounded queue and
// per-tenant quotas, leases simulated GPUs to them from a shared device
// pool through locassm.EngineSpec, checkpoints every job so a killed or
// evicted job resumes from its last completed round, and exports per-job /
// per-tenant metrics. The pipeline becomes a callee: a worker plans the
// job's spec and calls Plan.Run, the same path the mhm2sim CLI takes
// (plan.go).
//
// Determinism carries over unchanged from the batch path: a job's contigs
// and scaffolds are bit-identical to a standalone mhm2sim run of the same
// spec, regardless of queueing, device multiplexing, restarts, or retries.
package service

import (
	"time"

	"mhm2sim/internal/locassm"
)

// JobSpec is the one serialisable description of an assembly run: what the
// HTTP API accepts and what mhm2sim binds its flags into. The input is
// named declaratively — a synth preset plus overrides, or a FASTQ path
// readable by the process — so the spec is small, persistable, and
// sufficient to reproduce the run bit-identically (the determinism the
// stress tests assert against standalone runs). NewPlan turns it into the
// run it denotes.
type JobSpec struct {
	// Tenant attributes the job for quotas and metrics ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Preset names the synthetic community ("" = "arcticsynth"); ignored
	// when ReadsPath is set.
	Preset string `json:"preset,omitempty"`
	// Seed overrides the preset's community seed (0 keeps the preset's).
	Seed int64 `json:"seed,omitempty"`
	// Genomes / MinGenomeLen / MaxGenomeLen / Depth override the preset's
	// community shape when > 0 — how tests make jobs small and distinct.
	Genomes      int     `json:"genomes,omitempty"`
	MinGenomeLen int     `json:"min_genome_len,omitempty"`
	MaxGenomeLen int     `json:"max_genome_len,omitempty"`
	Depth        float64 `json:"depth,omitempty"`
	// ReadsPath is an interleaved paired FASTQ on the daemon's filesystem.
	ReadsPath string `json:"reads_path,omitempty"`
	// Rounds lists the contigging k values (nil = the pipeline default).
	Rounds []int `json:"rounds,omitempty"`
	// Engine selects the local-assembly substrate: cpu (default), gpu,
	// multigpu, or dist.
	Engine string `json:"engine,omitempty"`
	// GPUs is the multigpu engine's device demand (0 = locassm.DefaultNodeGPUs,
	// one Summit node; a pool smaller than that refuses the job at admission).
	GPUs int `json:"gpus,omitempty"`
	// Ranks is the dist engine's rank count (engine=dist requires ≥ 2).
	Ranks int `json:"ranks,omitempty"`
	// HostRanks runs every dist rank's local assembly on the host
	// flat-table engine instead of a device of its own (dist engine only).
	HostRanks bool `json:"host_ranks,omitempty"`
	// Faults injects a seeded chaos schedule (dist engine only). A job
	// whose schedule exhausts the runtime's retry budgets fails with
	// dist.ErrUnrecoverable and is retried by the scheduler, attempt k
	// planned with FaultSeed+k (see Config.JobRetries).
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// Shard selects the dist engine's contig → shard map: "hash" (default)
	// or "component" (co-locate whole dBG components; see DESIGN.md §14).
	// Either policy yields bit-identical contigs and scaffolds.
	Shard string `json:"shard,omitempty"`
	// MemBudget, when > 0, runs memory-bounded k-mer counting (Bloom
	// prefilter + multi-pass spill, see DESIGN.md §15) under this byte
	// budget (pipeline.Config.MemBudget holds the floor). With a fault
	// schedule, OOM events shrink the budget instead of poisoning devices.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Elastic is a membership schedule ("join@r1:2,leave@r2:1", dist engine
	// only; see DESIGN.md §16): joining ranks draw their devices from the
	// daemon's pool mid-run and return them when the job finishes.
	Elastic string `json:"elastic,omitempty"`
}

// withDefaults fills the defaulted fields.
func (s JobSpec) withDefaults() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Preset == "" {
		s.Preset = "arcticsynth"
	}
	if s.Engine == "" {
		s.Engine = locassm.EngineCPU
	}
	if s.Engine == locassm.EngineMultiGPU && s.GPUs <= 0 {
		s.GPUs = locassm.DefaultNodeGPUs
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 42
	}
	return s
}

// DeviceDemand is how many pool devices the job leases for its lifetime and
// computes on: one for the gpu engine, GPUs for multigpu, Ranks for dist (one
// per initial rank; a joining rank's comes from the pool at its round), zero
// for cpu and for host ranks — plus, under a mem_budget, the one its k-mer
// counting runs on.
func (s *JobSpec) DeviceDemand() int {
	n := 0
	if s.MemBudget > 0 {
		n = 1
	}
	switch s.Engine {
	case locassm.EngineGPU:
		n++
	case locassm.EngineMultiGPU:
		n += s.GPUs
	case locassm.EngineDist:
		if !s.HostRanks {
			n += s.Ranks
		}
	}
	return n
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a worker (or for devices).
	StateQueued State = "queued"
	// StateRunning: a worker holds the job's device lease and is executing
	// the pipeline.
	StateRunning State = "running"
	// StateSucceeded: result and contigs are persisted.
	StateSucceeded State = "succeeded"
	// StateFailed: the pipeline returned a non-cancellation error (after
	// exhausting job-level retries, for unrecoverable injected faults).
	StateFailed State = "failed"
	// StateCanceled: canceled by the client. A daemon shutdown does NOT
	// cancel jobs — interrupted jobs stay queued and resume from their
	// checkpoints on restart.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Status is the externally visible snapshot of a job — what GET
// /v1/jobs/{id} returns and what the store persists for finished jobs.
type Status struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	Error string  `json:"error,omitempty"`
	// Attempts counts pipeline executions (> 1 only after job-level
	// retries on unrecoverable injected faults).
	Attempts int `json:"attempts,omitempty"`
	// Resumes counts pipeline executions that started from a non-empty
	// checkpoint — daemon restarts and retries that skipped completed
	// rounds.
	Resumes    int       `json:"resumes,omitempty"`
	SubmitTime time.Time `json:"submit_time"`
	StartTime  time.Time `json:"start_time,omitempty"`
	FinishTime time.Time `json:"finish_time,omitempty"`
	// QueueWaitNS is submission → execution start, including any wait for
	// the device lease.
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// DeviceWaitNS is the part of the queue wait spent waiting on the
	// device pool; DeviceHeldNS is how long the lease was held.
	DeviceWaitNS int64 `json:"device_wait_ns,omitempty"`
	DeviceHeldNS int64 `json:"device_held_ns,omitempty"`
	Devices      int   `json:"devices,omitempty"`
	// StagesNS are the wall times of the (last) pipeline execution per
	// timing category, billed from the Observer's Timings deltas: the same
	// values as the job's report stages_ns, alignment split from aln kernel
	// included.
	StagesNS map[string]time.Duration `json:"stages_ns,omitempty"`
}
