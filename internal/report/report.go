// Package report is the one machine-readable run summary of this codebase:
// the schema behind `mhm2sim -json` and the daemon's result endpoint
// (internal/service). Both producers share this encoder so the two outputs
// cannot drift; the Schema field versions the format for consumers.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"mhm2sim/internal/atomicfile"
	"mhm2sim/internal/clock"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/gpucount"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/quality"
)

// SchemaVersion identifies the report format. Bump the suffix on any
// incompatible change (renamed/removed fields, changed units).
const SchemaVersion = "mhm2sim-report/v1"

// Report is the machine-readable run summary. All durations are
// nanoseconds, typed by their clock (time.Duration: the host's wall).
type Report struct {
	Schema   string                   `json:"schema"`
	StagesNS map[string]time.Duration `json:"stages_ns"`
	TotalNS  time.Duration            `json:"total_ns"`
	Assembly Assembly                 `json:"assembly"`
	Bins     []pipeline.RoundBins     `json:"bins"`
	GPU      *GPU                     `json:"gpu,omitempty"`
	Kmer     *Kmer                    `json:"kmer,omitempty"`
	Dist     *Dist                    `json:"dist,omitempty"`
}

// Assembly summarizes the contig set (lengths sorted descending).
type Assembly struct {
	Contigs   int `json:"contigs"`
	Bases     int `json:"bases"`
	N50       int `json:"n50"`
	Longest   int `json:"longest"`
	Scaffolds int `json:"scaffolds"`
	// Lens holds the contig lengths, descending — for histograms, not
	// serialized.
	Lens []int `json:"-"`
}

// GPU summarizes the device local-assembly kernels of the run.
type GPU struct {
	KernelTimeNS   clock.Device `json:"kernel_time_ns"`
	TransferTimeNS clock.Device `json:"transfer_time_ns"`
	Kernels        int          `json:"kernels"`
}

// Kmer summarizes memory-bounded k-mer counting (present only when the
// run had a -mem-budget): the pass plan, the Bloom prefilter's work and
// false-positive rate, the degradation counters and the counting launches'
// summed counters. Like Dist's recovery and per-rank rows, the accounting
// is the counter's own struct, encoded as it is; gpucount.BudgetStats owns
// those JSON names.
type Kmer struct {
	gpucount.BudgetStats
	FilterFPRate float64 `json:"filter_fp_rate"`
}

// Dist is the per-rank comm/compute breakdown of a multi-rank run.
type Dist struct {
	Ranks int `json:"ranks"`
	// Capacity is the rank ID ceiling after scheduled joins (equal to
	// Ranks for a static run); per_rank has Capacity rows.
	Capacity      int    `json:"capacity,omitempty"`
	VirtualShards int    `json:"virtual_shards"`
	Rounds        int    `json:"rounds"`
	ShardPolicy   string `json:"shard_policy,omitempty"`
	// Components is the per-round connected-component count (component
	// policy only); ComponentPassNS the accumulated pass wall time.
	Components      []int         `json:"components,omitempty"`
	ComponentPassNS time.Duration `json:"component_pass_ns,omitempty"`
	WallNS          clock.Machine `json:"wall_ns"`
	CommTimeNS      clock.Fabric  `json:"comm_time_ns"`
	// CommBytes is remote (wire) bytes; LocalBytes the rank-local bytes
	// that never left their rank; Locality = local/(local+remote).
	CommBytes  int64   `json:"comm_bytes"`
	LocalBytes int64   `json:"local_bytes"`
	Locality   float64 `json:"locality"`
	CommMsgs   int64   `json:"comm_msgs"`
	Efficiency float64 `json:"efficiency"`
	Faults     string  `json:"faults,omitempty"`
	// Recovery (chaos runs), Elasticity (runs that changed membership or
	// stole work) and the per-rank rows of the strong-scaling breakdown are
	// the runtime's own structs, encoded as they are.
	Recovery   *dist.RecoveryStats   `json:"recovery,omitempty"`
	Elasticity *dist.ElasticityStats `json:"elasticity,omitempty"`
	PerRank    []dist.RankStats      `json:"per_rank"`
	// Stages is the per-exchange local-vs-remote byte split in execution
	// order — the Fig 9-style comm breakdown.
	Stages []StageComm `json:"stages,omitempty"`
}

// StageComm is one fabric exchange's traffic split.
type StageComm struct {
	Stage       string       `json:"stage"`
	RemoteBytes int64        `json:"remote_bytes"`
	LocalBytes  int64        `json:"local_bytes"`
	Msgs        int64        `json:"msgs"`
	TimeNS      clock.Fabric `json:"time_ns"`
	Locality    float64      `json:"locality"`
}

// ComputeAssembly derives the assembly summary from a pipeline result.
func ComputeAssembly(res *pipeline.Result) Assembly {
	lens := make([]int, len(res.Contigs))
	for i, c := range res.Contigs {
		lens[i] = len(c.Seq)
	}
	q := quality.LenStats(lens, 0) // sorts lens longest first
	return Assembly{Contigs: q.Count, Bases: int(q.TotalBases), N50: q.N50, Longest: q.Longest,
		Scaffolds: len(res.Scaffolds), Lens: lens}
}

// Build assembles the report; rep may be nil (single-process run).
func Build(res *pipeline.Result, rep *dist.Report) *Report {
	r := &Report{
		Schema:   SchemaVersion,
		StagesNS: make(map[string]time.Duration, int(pipeline.NumStages)),
		TotalNS:  res.Timings.Total(),
		Assembly: ComputeAssembly(res),
		Bins:     res.Bins,
	}
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		r.StagesNS[s.String()] = res.Timings.Wall[s]
	}
	if len(res.Work.GPUKernels) > 0 {
		r.GPU = &GPU{
			KernelTimeNS:   res.Work.GPUKernelTime,
			TransferTimeNS: res.Work.GPUTransferTime,
			Kernels:        len(res.Work.GPUKernels),
		}
	}
	if kb := res.Work.KmerBudget; kb.Passes > 0 {
		r.Kmer = &Kmer{kb, kb.FPRate()}
	}
	if rep != nil {
		jd := &Dist{
			Ranks:           rep.Ranks,
			Capacity:        rep.Capacity,
			VirtualShards:   dist.DefaultVirtualShards,
			Rounds:          rep.Rounds,
			ShardPolicy:     rep.ShardPolicy,
			Components:      rep.Components,
			ComponentPassNS: rep.ComponentPassTime,
			WallNS:          rep.Wall,
			CommTimeNS:      rep.CommTime,
			CommBytes:       rep.RemoteBytes(),
			LocalBytes:      rep.LocalBytes(),
			Locality:        rep.Locality(),
			Efficiency:      rep.Efficiency(),
			PerRank:         rep.PerRank,
		}
		for i := range rep.Stages {
			st := &rep.Stages[i]
			jd.Stages = append(jd.Stages, StageComm{
				Stage:       st.Stage,
				RemoteBytes: st.TotalBytes(),
				LocalBytes:  st.TotalLocalBytes(),
				Msgs:        st.TotalMsgs(),
				TimeNS:      st.Time,
				Locality:    st.Locality(),
			})
			jd.CommMsgs += st.TotalMsgs()
		}
		if rep.Recovery.Any() {
			jd.Faults = rep.Faults
			jd.Recovery = &rep.Recovery
		}
		if rep.Elasticity.Any() {
			jd.Elasticity = &rep.Elasticity
		}
		r.Dist = jd
	}
	return r
}

// Encode writes the report to w as indented JSON with a trailing newline.
func (r *Report) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteFile writes the report to path (atomically: write + rename).
func (r *Report) WriteFile(path string) error {
	_, err := atomicfile.Write(path, r.Encode)
	return err
}

// Load reads a report back and checks the schema — the daemon uses this to
// serve persisted results without re-deriving them.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("report: corrupt %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("report: %s has schema %q, want %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}
