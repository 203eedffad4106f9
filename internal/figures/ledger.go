package figures

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/report"
	"mhm2sim/internal/roofline"
	"mhm2sim/internal/service"
	"mhm2sim/internal/simt"
)

// hostClocks are the report fields read off the host's wall clock, the only
// values in a report that vary run to run. The ledger drops them.
var hostClocks = []string{"stages_ns", "total_ns", "component_pass_ns"}

// Ledger renders the exact ledger (DESIGN.md §4): one sorted "name value
// clock workload" line per modeled number of m's runs, of CI's soil budget
// count and of CI's chaos smoke, each source marshalled as it is.
func Ledger(m Measured) (string, error) {
	var runs [2]*report.Report
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
		runs[i] = report.Build(res, rep)
	}
	// Fig 12's other stages split the host's wall times; its local assembly is the model's.
	cpu2, gpu2, f2, err := twoNode(m.Model, m.Arctic.Timings)
	if err != nil {
		return "", err
	}
	cpu64, gpu64 := m.Model.WABreakdown64(m.F64)
	la, wa := pipeline.StageLocalAssembly, "WA:last-dump"
	var l ledger
	l.roofline(m.Roofline, "arcticsynth:last-dump")
	l.add("arctic", "arcticsynth", report.Build(m.Arctic, nil))
	l.add("wa", "WA", report.Build(m.WA, nil))
	l.add("soil", "soil:k21:mem-budget=128MiB", runs[0])
	l.add("chaos", "arcticsynth:k21,33:dist8-gpu:rank-crash=1,oom=2:seed42", runs[1])
	l.add("cluster", wa, struct{ F64, Scale float64 }{m.F64, m.Scale})
	l.add("cluster.model", wa, m.Model)
	l.add("cluster.la", wa, m.Model.LAScaling(ScalingNodes, m.F64))
	l.add("cluster.pipeline", wa, m.Model.PipelineScaling(ScalingNodes, m.F64))
	l.add("cluster.wa64", wa, map[string]any{"cpu": cpu64, "gpu": gpu64})
	l.add("cluster.twonode", wa, struct{ F2, LACPUSec, LAGPUSec float64 }{f2, cpu2.StageSec[la], gpu2.StageSec[la]})
	return l.render()
}

// RooflineLedger renders the ledger's lines of a roofline sweep.
func RooflineLedger(r RooflineResults, workload string) (string, error) {
	var l ledger
	l.roofline(r, workload)
	return l.render()
}

// ledger collects lines; err is the first source that did not marshal.
type ledger struct {
	lines []string
	err   error
}

// roofline adds the CPU reference's work counts and, per kernel version, the
// driver's totals and its launches' stats summed, unscaled.
func (l *ledger) roofline(r RooflineResults, workload string) {
	l.add("roofline.cpu", workload, r.CPU.Counts)
	for i, name := range []string{"roofline.v1", "roofline.v2"} {
		run := r.Runs[i].Stats
		l.add(name, workload, roofline.Merge("", simt.V100(), run.Kernels).Stats)
		l.add(name+".Launches", workload, len(run.Kernels))
		run.Kernels = nil // per-run sums, not per-launch lists
		l.add(name, workload, run)
	}
}

// add marshals v with encoding/json and flattens it below name.
func (l *ledger) add(name, workload string, v any) {
	b, err := json.Marshal(v)
	var tree any
	if err == nil {
		dec := json.NewDecoder(strings.NewReader(string(b)))
		dec.UseNumber() // integers stay exact
		err = dec.Decode(&tree)
	}
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("ledger %s: %w", name, err)
	}
	l.lines = flatten(l.lines, name, workload, tree)
}

// render sorts the lines: by name, as a space sorts below a name's characters.
func (l *ledger) render() (string, error) {
	slices.Sort(l.lines)
	return strings.Join(l.lines, "\n") + "\n", l.err
}

// flatten appends a line per number and boolean of a decoded JSON value,
// named by its path: keys join with ".", list elements are "[i]". Strings and
// nulls are labels. Integers print whole, other numbers at %.9g.
func flatten(lines []string, name, workload string, x any) []string {
	switch x := x.(type) {
	case map[string]any:
		for k, v := range x {
			if !slices.Contains(hostClocks, k) {
				lines = flatten(lines, name+"."+k, workload, v)
			}
		}
	case []any:
		for i, v := range x {
			lines = flatten(lines, name+"["+strconv.Itoa(i)+"]", workload, v)
		}
	case json.Number, bool:
		s := fmt.Sprint(x)
		if f, err := strconv.ParseFloat(s, 64); err == nil && strings.ContainsAny(s, ".eE") {
			s = fmt.Sprintf("%.9g", f)
		}
		lines = append(lines, name+" "+s+" "+clockOf(name)+" "+workload)
	}
	return lines
}

// clockOf is the ledger's clock rule (DESIGN.md §4). A duration's name ends
// in _ns or Time, or is Busy, or is dist's efficiency (a ratio of them).
func clockOf(name string) string {
	key := name[strings.LastIndexByte(name, '.')+1:]
	switch {
	case strings.HasPrefix(name, "cluster."):
		return "cluster-model"
	case !strings.HasSuffix(key, "_ns") && !strings.HasSuffix(key, "Time") && key != "Busy" && key != "efficiency":
		return "count"
	case strings.Contains(name, ".dist."):
		return "fabric-model"
	}
	return "device-model"
}
