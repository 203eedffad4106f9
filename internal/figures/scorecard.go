package figures

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"mhm2sim/internal/cluster"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// Kind says how a scorecard row is judged.
type Kind int

const (
	// Anchor rows are fitted to the paper's value (EXPERIMENTS.md's
	// calibration record): shown, never judged.
	Anchor Kind = iota
	// Prediction rows come out of the measured implementations and the
	// models; one outside [Lo, Hi] fails the run.
	Prediction
	// KnownDeviation rows miss the paper's range [Lo, Hi] for a stated
	// Cause. They are judged only for "still deviates": one that lands
	// inside fails the run until the row is rewritten as a prediction.
	KnownDeviation
)

func (k Kind) String() string {
	return [...]string{"anchor", "prediction", "known deviation"}[k]
}

// Row is one claim of the paper against what this repository measures.
type Row struct {
	Fig      string // figure or section of the paper
	Claim    string
	Paper    string // the paper's value, as printed
	Measured float64
	Unit     string  // as it follows the number: " s", "%", "×"
	Workload string  // what Measured was measured on
	Clock    string  // device-model, cluster-model or count (BENCHMARK.json's labels)
	Lo, Hi   float64 // accepted range; an infinite bound leaves that side open
	Kind     Kind
	Cause    string // of a KnownDeviation, in one line
}

// Verdict judges the row; ok is false when the row fails the run.
func (r Row) Verdict() (verdict string, ok bool) {
	in := r.Lo <= r.Measured && r.Measured <= r.Hi
	switch {
	case r.Kind == Anchor:
		return "— fitted", true
	case r.Kind == Prediction && in:
		return "✓", true
	case r.Kind == Prediction:
		return "✗ FAILED", false
	case in:
		return "closed — update the row", false
	default:
		return "✗ known deviation", true
	}
}

// Measured is what a scorecard is filled from: the results cmd/figures
// computes for the figures themselves.
type Measured struct {
	Arctic   *pipeline.Result // the arcticsynth run: Fig 3's bins, Fig 12's host-wall shares
	Roofline RooflineResults  // Figs 8–10 over Arctic's last dump,
	Scale    float64          //   replayed at this many copies on one V100
	WA       *pipeline.Result // the WA run, on whose last dump
	Model    *cluster.Model   //   the cluster model is fitted (Fig 13's end points),
	F64      float64          //   giving this per-node share at 64 nodes
}

// The three causes of the known deviations, each stated once.
const (
	causeNoTail = "the synthetic community has no long tail of low-abundance organisms and junk contigs " +
		"(the abundance skew of real metagenomes, Georganas et al.), so the surviving contigs are disproportionately well covered"
	causeSpills = "the CUDA kernels spill whole per-thread buffers to local memory; " +
		"these kernels model only the key staging and the walk mirror there"
	causeKnee = "cluster.LAScaling degrades only through the latency/occupancy floor; the real driver also pays " +
		"per-launch and per-batch overheads that bite from ≈128 nodes, so the knee here sits at ≈512"
)

// notModeled closes the causes: what of the paper's local assembly no row measures, and why.
const notModeled = "- Not modeled: §3.1's separate bin-2 and bin-3 launches and Fig 11's overlap of bin 2 on the host cores. " +
	"Local assembly runs device-only and unbinned, because the overlap's bin-2 split hangs on the host's worker count, " +
	"which neither the exact ledger (any GOMAXPROCS) nor dist's kernel lists (any rank count) may see (DESIGN.md §1).\n"

// Scorecard scores every claim of the paper's evaluation (EXPERIMENTS.md
// §"Per-experiment results" is its rendering). The accepted ranges are
// stated for the standard setups.
func Scorecard(m Measured) ([]Row, error) {
	var rows []Row
	var fig, workload, clock string
	row := func(kind Kind, claim, paper string, v float64, unit string, lo, hi float64, cause string) {
		rows = append(rows, Row{fig, claim, paper, v, unit, workload, clock, lo, hi, kind, cause})
	}
	anchor := func(claim, paper string, v float64, unit string, want float64) {
		row(Anchor, claim, paper, v, unit, want*0.999, want*1.001, "")
	}
	predict := func(claim, paper string, v float64, unit string, lo, hi float64) {
		row(Prediction, claim, paper, v, unit, lo, hi, "")
	}
	dump := func(name string, res *pipeline.Result) string {
		return fmt.Sprintf("%s k=%d dump (%d contigs)", name, res.Bins[len(res.Bins)-1].K, len(res.LAWorkload))
	}
	inf := math.Inf(1)
	const la = pipeline.StageLocalAssembly

	wa := dump("WA", m.WA)
	cpu64, gpu64 := m.Model.WABreakdown64(m.F64)
	fig, workload, clock = "Fig 2", fmt.Sprintf("%s ×%.4g per node, 64 nodes", wa, m.F64), "cluster-model"
	anchor("total, CPU local assembly", "2128 s", float64(cpu64.TotalSec), " s", cluster.WATotalCPU64Sec)
	anchor("local-assembly share, CPU", "34%", cpu64.Percent(la), "%", 100*cluster.WAShares[la])
	predict("total, GPU local assembly", "1495 s", float64(gpu64.TotalSec), " s", 1450, 1540)
	predict("local-assembly share, GPU", "6%", gpu64.Percent(la), "%", 5, 8)

	bins := m.Arctic.Bins
	share := func(n int, r pipeline.RoundBins) float64 {
		return 100 * float64(n) / float64(r.Zero+r.Small+r.Large)
	}
	maxBin3, minShrink := 0.0, inf
	ks := make([]string, len(bins))
	for i, r := range bins {
		ks[i] = fmt.Sprint(r.K)
		maxBin3 = max(maxBin3, share(r.Large, r))
		if i > 0 {
			minShrink = min(minShrink, share(bins[i-1].Zero, bins[i-1])-share(r.Zero, r))
		}
	}
	fig, workload, clock = "Fig 3", "arcticsynth, k = "+strings.Join(ks, ", "), "count"
	row(KnownDeviation, fmt.Sprintf("bin 1 (no candidate reads) at k = %d", bins[0].K), "~88%",
		share(bins[0].Zero, bins[0]), "%", 60, 100, causeNoTail)
	row(KnownDeviation, "bin 3 (≥ 10 reads), its largest share over k", "< 1%", maxBin3, "%", 0, 5, causeNoTail)
	predict("bin 1 shrinks with k: its smallest step", "shrinks with k", minShrink, " points", 0.1, inf)

	v1, v2 := m.Roofline.V1, m.Roofline.V2
	arctic := dump("arcticsynth", m.Arctic)
	v100 := simt.V100()
	fig, clock = "Figs 8–9", "device-model"
	workload = fmt.Sprintf("%s: %d SMs × %d schedulers × %.2f GHz", v100.Name, v100.SMs, v100.SchedulersPerSM, v100.ClockGHz)
	predict("theoretical peak", "489.6 warp GIPS", v2.PeakGIPS, " GIPS", 489.5, 489.7)
	workload = fmt.Sprintf("%s ×%.4g on one V100", arctic, m.Scale)
	predict("v2 achieved", "14.4 warp GIPS", v2.WarpGIPS, " GIPS", 11.5, 17.3)
	predict("L1 dot moves up: v2 / v1 GIPS", "v1 lower", v2.WarpGIPS/v1.WarpGIPS, "×", 1.05, inf)
	predict("L1 dot moves right: II(v2) − II(v1)", "right of v1", v2.IntensityL1-v1.IntensityL1, " instr/tx", 0.001, inf)
	predict("predication: active lanes, v2 − v1", "both predicated, v1 worse",
		100*(v2.PredicationRatio-v1.PredicationRatio), " points", 1, 99)
	row(KnownDeviation, "local memory's share of L1 traffic, v1", "~70%", v1.LocalSharePct, "%", 60, 80, causeSpills)
	row(KnownDeviation, "local memory's share of L1 traffic, v2", "~70%", v2.LocalSharePct, "%", 60, 80, causeSpills)

	g1, g2 := v1.GroupBreakdown(), v2.GroupBreakdown()
	// of is group g's share of a kernel's warp instructions, in percent.
	of := func(g map[string]uint64, group string) float64 {
		return 100 * float64(g[group]) / float64(g["global_memory_inst"]+g["local_memory_inst"]+g["fp_inst"]+g["int_inst"])
	}
	intLead := func(g map[string]uint64) float64 {
		return float64(g["int_inst"]) / float64(max(g["global_memory_inst"], g["local_memory_inst"], g["fp_inst"]))
	}
	fig, clock = "Fig 10", "count"
	predict("global-memory instructions, v2 / v1", "sharply reduced",
		float64(g2["global_memory_inst"])/float64(g1["global_memory_inst"]), "×", 0, 0.7)
	predict("local-memory instructions, smaller share of v1, v2", "present in both",
		min(of(g1, "local_memory_inst"), of(g2, "local_memory_inst")), "%", 1, 50)
	predict("INT over the next group, smaller of v1, v2", "INT dominant", min(intLead(g1), intLead(g2)), "×", 1.01, inf)
	predict("FP instructions, larger share of v1, v2", "negligible", max(of(g1, "fp_inst"), of(g2, "fp_inst")), "%", 0, 1)

	cpu2, gpu2, f2, err := twoNode(m.Model, m.Arctic.Timings)
	if err != nil {
		return nil, err
	}
	fig, workload, clock = "Fig 12", fmt.Sprintf("%s ×%.4g per node, 2 nodes", wa, f2), "cluster-model"
	anchor("local-assembly speedup", "4.3×", float64(cpu2.StageSec[la]/gpu2.StageSec[la]), "×", 4.3)
	anchor("local-assembly share of the CPU run", "~14%", cpu2.Percent(la), "%", 14)
	predict("overall improvement", "~12%", float64(cpu2.TotalSec/gpu2.TotalSec-1)*100, "%", 10, 14)

	laPts, pipePts := m.Model.LAScaling(ScalingNodes, m.F64), m.Model.PipelineScaling(ScalingNodes, m.F64)
	last := len(ScalingNodes) - 1
	fig, workload = "Fig 13", fmt.Sprintf("%s ×%.4g·64/N per node", wa, m.F64)
	anchor("CPU local assembly, 64 nodes", "≈700–730 s", float64(pipePts[0].LACPUSec), " s", cluster.WAShares[la]*cluster.WATotalCPU64Sec)
	predict("CPU local assembly, 1024 nodes", "≈45 s", float64(pipePts[last].LACPUSec), " s", 40, 50)
	anchor("GPU speedup, 64 nodes", "> 7×", laPts[0].Speedup, "×", 7.2)
	for i, paper := range []struct {
		text   string
		lo, hi float64
	}{{"≈6–7×", 6, 7}, {"≈5–6×", 5, 6}, {"≈4×", 3.5, 4.5}} {
		p := laPts[i+1]
		row(KnownDeviation, fmt.Sprintf("GPU speedup, %d nodes", p.Nodes), paper.text, p.Speedup, "×", paper.lo, paper.hi, causeKnee)
	}
	anchor("GPU speedup, 1024 nodes", "2.65×", laPts[last].Speedup, "×", 2.65)

	minDecline := inf
	for i := 1; i < len(pipePts); i++ {
		minDecline = min(minDecline, pipePts[i-1].SpeedupPct-pipePts[i].SpeedupPct)
	}
	fig = "Fig 14"
	predict("whole-pipeline improvement, 64 nodes", "≈42%", pipePts[0].SpeedupPct, "%", 38, 46)
	predict("improvement shrinks with nodes: its smallest step", "shrinks at scale", minDecline, " points", 0.1, inf)
	predict("whole-pipeline improvement, 1024 nodes", "GPU still ahead", pipePts[last].SpeedupPct, "%", 1, 42)

	fig, workload, clock = "§3.2", "reads of ≤ 300 bases, k = 21", "count"
	predict("worst-case load factor", "(300−21+1)/300 ≈ 0.93", gpuht.LoadFactor(300, 21), "", 0.933, 0.934)

	fig, workload = "§3.3–3.4", arctic+", v1 and v2"
	predict("extensions differing from the CPU reference's", "none (implicit)", float64(m.Roofline.Mismatches), "", 0, 0)
	return rows, nil
}

// RenderScorecard renders the rows as a Markdown table (aligned, so it
// reads in a terminal too) followed by the cause of each known deviation,
// and returns the rows that fail the run.
func RenderScorecard(rows []Row) (string, []Row) {
	table := [][]string{{"figure", "claim", "paper", "measured", "accepted", "workload", "clock", "kind", "verdict"}}
	var failed []Row
	var causes []string // in order of first appearance, with the rows each explains
	deviating := map[string][]string{}
	for _, r := range rows {
		verdict, ok := r.Verdict()
		if !ok {
			failed = append(failed, r)
		}
		if r.Kind == KnownDeviation {
			if deviating[r.Cause] == nil {
				causes = append(causes, r.Cause)
			}
			deviating[r.Cause] = append(deviating[r.Cause], r.Fig+", "+r.Claim)
		}
		accepted := fmt.Sprintf("[%.4g, %.4g]", r.Lo, r.Hi)
		if math.IsInf(r.Hi, 1) {
			accepted = fmt.Sprintf("≥ %.4g", r.Lo)
		}
		table = append(table, []string{r.Fig, r.Claim, r.Paper, fmt.Sprintf("%.4g%s", r.Measured, r.Unit),
			accepted, r.Workload, r.Clock, r.Kind.String(), verdict})
	}
	width := make([]int, len(table[0]))
	for _, cells := range table {
		for i, c := range cells {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	for n, cells := range table {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %s%s ", c, strings.Repeat(" ", width[i]-utf8.RuneCountInString(c)))
		}
		b.WriteString("|\n")
		if n == 0 {
			for _, w := range width {
				b.WriteString("|" + strings.Repeat("-", w+2))
			}
			b.WriteString("|\n")
		}
	}
	b.WriteString("\nKnown deviations, by cause (a row that lands inside the paper's range fails the run until it is rewritten):\n")
	for _, c := range causes {
		fmt.Fprintf(&b, "- %s: %s.\n", strings.Join(deviating[c], "; "), c)
	}
	b.WriteString(notModeled)
	return b.String(), failed
}
