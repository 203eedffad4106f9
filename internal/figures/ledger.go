package figures

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"mhm2sim/internal/clock"
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
	var l ledger
	l.roofline(m.Roofline, "arcticsynth:last-dump")
	l.add("arctic", "arcticsynth", report.Build(m.Arctic, nil))
	l.add("wa", "WA", report.Build(m.WA, nil))
	l.add("soil", "soil:k21:mem-budget=128MiB", reps[0])
	l.add("chaos", "arcticsynth:k21,33:dist8-gpu:rank-crash=1,oom=2:seed42", reps[1])
	l.fasta("arctic", "arcticsynth", m.Arctic)
	l.fasta("wa", "WA", m.WA)
	l.fasta("soil", "soil:k21:mem-budget=128MiB", runs[0])
	l.fasta("chaos", "arcticsynth:k21,33:dist8-gpu:rank-crash=1,oom=2:seed42", runs[1])
	l.add("cluster", wa, struct{ F64, Scale float64 }{m.F64, m.Scale})
	l.add("cluster.model", wa, m.Model)
	l.add("cluster.la", wa, m.Model.LAScaling(ScalingNodes, m.F64))
	l.add("cluster.pipeline", wa, m.Model.PipelineScaling(ScalingNodes, m.F64))
	l.add("cluster.wa64", wa, map[string]any{"cpu": cpu64, "gpu": gpu64})
	l.add("cluster.twonode", wa, struct {
		F2                 float64
		LACPUSec, LAGPUSec clock.Cluster
	}{f2, cpu2.StageSec[la], gpu2.StageSec[la]})
	return l.render()
}

// RooflineLedger renders the ledger's lines of a roofline sweep.
func RooflineLedger(r RooflineResults, workload string) (string, error) {
	var l ledger
	l.roofline(r, workload)
	return l.render()
}

// ledger collects lines; err is the first assembly that did not write.
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

// add flattens v below name (DESIGN.md §4): a line per number and boolean,
// named by its path as encoding/json names it (tag name, omitempty, "-",
// embedded structs promoted), with list elements as "[i]". Strings give no
// line, and neither does a time.Duration: a host clock, which varies run to
// run. Whole numbers print whole, others at %.9g.
func (l *ledger) add(name, workload string, v any) {
	l.walk(name, workload, reflect.ValueOf(v))
}

func (l *ledger) walk(name, workload string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			l.walk(name, workload, v.Elem())
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			l.walk(name+"."+fmt.Sprint(it.Key()), workload, it.Value())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			l.walk(name+"["+strconv.Itoa(i)+"]", workload, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			tag := f.Tag.Get("json")
			key, opts, _ := strings.Cut(tag, ",")
			switch kind := fv.Kind(); {
			case tag == "-", !f.IsExported() && !f.Anonymous: // not encoded
			case strings.Contains(opts, "omitempty") && fv.IsZero() && kind != reflect.Struct && kind != reflect.Array: // omitted
			case f.Anonymous && key == "":
				l.walk(name, workload, fv)
			default:
				l.walk(name+"."+cmp.Or(key, f.Name), workload, fv)
			}
		}
	default:
		l.line(name, workload, v)
	}
}

// line adds the line of a number or boolean; other kinds, and a
// time.Duration, give none. The clock is the type's label (clock.Labels), or
// "count".
func (l *ledger) line(name, workload string, v reflect.Value) {
	var s string
	switch {
	case v.Type() == reflect.TypeFor[time.Duration]():
		return
	case v.Kind() == reflect.Bool:
		s = strconv.FormatBool(v.Bool())
	case v.CanInt():
		s = strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		s = strconv.FormatUint(v.Uint(), 10)
	case v.CanFloat():
		s = strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if f := v.Float(); f != math.Trunc(f) || math.Abs(f) >= 1e21 {
			s = fmt.Sprintf("%.9g", f)
		}
	default:
		return
	}
	l.lines = append(l.lines, name+" "+s+" "+cmp.Or(clock.Labels[v.Type()], "count")+" "+workload)
}

// fasta adds the sha-256 of res's assembly as mhm2sim -out writes it: the
// bytes every cmp in CI compares, pinned outright.
func (l *ledger) fasta(name, workload string, res *pipeline.Result) {
	h := sha256.New()
	if err := pipeline.WriteFASTAOutputs(h, res); err != nil && l.err == nil {
		l.err = fmt.Errorf("ledger %s: %w", name, err)
	}
	l.lines = append(l.lines, fmt.Sprintf("%s.fasta_sha256 %x count %s", name, h.Sum(nil), workload))
}

// render sorts the lines: by name, as a space sorts below a name's characters.
func (l *ledger) render() (string, error) {
	slices.Sort(l.lines)
	return strings.Join(l.lines, "\n") + "\n", l.err
}
