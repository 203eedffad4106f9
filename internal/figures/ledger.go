package figures

import (
	"context"
	"crypto/sha256"
	"fmt"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/ledger"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/roofline"
	"mhm2sim/internal/service"
	"mhm2sim/internal/simt"
)

// Ledger renders the exact ledger (DESIGN.md §4): one sorted "name value
// clock workload" line per modeled number of m's runs, of CI's soil budget
// count and of CI's chaos smoke, each source flattened as it is, and the
// digest of each of those four assemblies' FASTA.
func Ledger(m Measured) (string, error) {
	var runs [2]*pipeline.Result
	var reps [2]*report.Report
	for i, spec := range []service.JobSpec{
		{Preset: "soil", Rounds: []int{21}, MemBudget: 128 << 20},
		{Engine: locassm.EngineDist, Ranks: 8, Rounds: []int{21, 33}, Faults: "rank-crash=1,oom=2", FaultSeed: 42},
	} {
		plan, err := service.NewPlan(spec) // as mhm2sim and the daemon run it
		if err != nil {
			return "", err
		}
		res, rep, err := plan.Run(context.Background())
		if err != nil {
			return "", err
		}
		runs[i], reps[i] = res, report.Build(res, rep)
	}
	// Fig 12's other stages split the host's wall times; its local assembly is the model's.
	cpu2, gpu2, f2, err := twoNode(m.Model, m.Arctic.Timings)
	if err != nil {
		return "", err
	}
	cpu64, gpu64 := m.Model.WABreakdown64(m.F64)
	la, wa := pipeline.StageLocalAssembly, "WA:last-dump"
	soil, chaos := "soil:k21:mem-budget=128MiB", "arcticsynth:k21,33:dist8-gpu:rank-crash=1,oom=2:seed42"
	lines := rooflineLines(nil, m.Roofline, "arcticsynth:last-dump")
	lines = ledger.Append(lines, "arctic", "arcticsynth", report.Build(m.Arctic, nil))
	lines = ledger.Append(lines, "wa", "WA", report.Build(m.WA, nil))
	lines = ledger.Append(lines, "soil", soil, reps[0])
	lines = ledger.Append(lines, "chaos", chaos, reps[1])
	lines = ledger.Append(lines, "cluster", wa, struct{ F64, Scale float64 }{m.F64, m.Scale})
	lines = ledger.Append(lines, "cluster.model", wa, m.Model)
	lines = ledger.Append(lines, "cluster.la", wa, m.Model.LAScaling(ScalingNodes, m.F64))
	lines = ledger.Append(lines, "cluster.pipeline", wa, m.Model.PipelineScaling(ScalingNodes, m.F64))
	lines = ledger.Append(lines, "cluster.wa64", wa, map[string]any{"cpu": cpu64, "gpu": gpu64})
	lines = ledger.Append(lines, "cluster.twonode", wa, struct {
		F2                 float64
		LACPUSec, LAGPUSec clock.Cluster
	}{f2, cpu2.StageSec[la], gpu2.StageSec[la]})
	// The sha-256 of each assembly as mhm2sim -out writes it: the bytes
	// every cmp in CI compares, pinned outright.
	for _, a := range []struct {
		name, workload string
		res            *pipeline.Result
	}{{"arctic", "arcticsynth", m.Arctic}, {"wa", "WA", m.WA}, {"soil", soil, runs[0]}, {"chaos", chaos, runs[1]}} {
		h := sha256.New()
		if err := pipeline.WriteFASTAOutputs(h, a.res); err != nil {
			return "", fmt.Errorf("ledger %s: %w", a.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s.fasta_sha256 %x count %s", a.name, h.Sum(nil), a.workload))
	}
	return ledger.Render(lines), nil
}

// RooflineLedger renders the ledger's lines of a roofline sweep.
func RooflineLedger(r RooflineResults, workload string) string {
	return ledger.Render(rooflineLines(nil, r, workload))
}

// rooflineLines adds the CPU reference's work counts and, per kernel version, the
// driver's totals and its launches' stats summed, unscaled.
func rooflineLines(lines []string, r RooflineResults, workload string) []string {
	lines = ledger.Append(lines, "roofline.cpu", workload, r.CPU.Counts)
	for i, name := range []string{"roofline.v1", "roofline.v2"} {
		run := r.Runs[i].Stats
		lines = ledger.Append(lines, name, workload, roofline.Merge("", simt.V100(), run.Kernels).Stats)
		lines = ledger.Append(lines, name+".Launches", workload, len(run.Kernels))
		run.Kernels = nil // per-run sums, not per-launch lists
		lines = ledger.Append(lines, name, workload, run)
	}
	return lines
}
