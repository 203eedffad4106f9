// Package roofline implements the Instruction Roofline model of Ding &
// Williams (PMBS'19), the methodology behind the paper's Figs 8–10: kernel
// performance in billions of warp instructions per second (GIPS) against
// instruction intensity (warp instructions per memory transaction), with
// the theoretical issue peak, memory walls for characteristic access
// patterns, and the thread-predication gap.
package roofline

import (
	"fmt"
	"strings"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/simt"
)

// Analysis is the roofline characterization of one kernel.
type Analysis struct {
	Kernel string
	Time   clock.Device
	Bound  string

	// WarpGIPS is achieved performance: executed warp instructions per
	// second (the solid dot). NonPredWarpGIPS is where the dot would sit
	// if every lane slot did useful work (the dashed line of Figs 8–9);
	// the gap between the two is thread predication.
	WarpGIPS        float64
	NonPredWarpGIPS float64

	// IntensityL1 is total warp instructions per L1 transaction (the
	// solid-dot x position). IntensityGlobal is global load/store warp
	// instructions per global transaction (the open "ldst_inst" dot).
	IntensityL1     float64
	IntensityGlobal float64

	// PredicationRatio is active-lane slots over total lane slots.
	PredicationRatio float64

	// Transactions by space, and local memory's share of L1 traffic
	// (§4.2 reports ≈70% for these kernels).
	GlobalTx, LocalTx, AtomicTx uint64
	LocalSharePct               float64

	// Breakdown is warp instructions by class (Fig 10).
	Breakdown map[string]uint64

	// Ceilings.
	PeakGIPS float64
	// Stride1WallII / Stride8WallII are the intensities of perfectly
	// coalesced 8-byte unit-stride accesses (8 sectors per warp ldst) and
	// of fully divergent accesses (32 sectors per warp ldst).
	Stride1WallII float64
	Stride8WallII float64
}

// Analyze characterizes one kernel result under the device configuration.
func Analyze(cfg simt.DeviceConfig, k simt.KernelResult) Analysis {
	a := Analysis{
		Kernel:        k.Kernel,
		Time:          k.Time,
		Bound:         k.Bound,
		PeakGIPS:      cfg.PeakWarpGIPS(),
		Stride1WallII: 1.0 / 8,
		Stride8WallII: 1.0 / 32,
	}
	secs := k.Time.Seconds()
	warp := float64(k.TotalWarpInstrs())
	if secs > 0 {
		a.WarpGIPS = warp / secs / 1e9
		// Non-predicated rate: only lane slots doing real work count
		// (thread instructions / 32). The gap below WarpGIPS is the
		// thread-predication loss Figs 8–9 visualize.
		a.NonPredWarpGIPS = float64(k.TotalThreadInstrs()) / float64(simt.WarpSize) / secs / 1e9
	}
	if l1 := k.L1Sectors(); l1 > 0 {
		a.IntensityL1 = warp / float64(l1)
	}
	gInst, _ := k.MemWarpInstrs()
	if k.GlobalSectors+k.AtomicSectors > 0 {
		a.IntensityGlobal = float64(gInst) / float64(k.GlobalSectors+k.AtomicSectors)
	}
	a.PredicationRatio = k.NonPredicatedRatio()
	a.GlobalTx, a.LocalTx, a.AtomicTx = k.GlobalSectors, k.LocalSectors, k.AtomicSectors
	if l1 := k.L1Sectors(); l1 > 0 {
		a.LocalSharePct = 100 * float64(k.LocalSectors) / float64(l1)
	}
	a.Breakdown = map[string]uint64{}
	for c := 0; c < simt.NumInstrClasses; c++ {
		if k.WarpInstrs[c] > 0 {
			a.Breakdown[simt.InstrClass(c).String()] = k.WarpInstrs[c]
		}
	}
	return a
}

// GroupBreakdown folds the per-class counts into Fig 10's four groups:
// global memory, local memory, FP, and INT (everything else integer-ish:
// control, intrinsics, atomics count as integer pipeline work except the
// memory classes).
func (a Analysis) GroupBreakdown() map[string]uint64 {
	g := map[string]uint64{}
	for name, n := range a.Breakdown {
		switch name {
		case "ld.global", "st.global", "atomic":
			g["global_memory_inst"] += n
		case "ld.local", "st.local":
			g["local_memory_inst"] += n
		case "fp":
			g["fp_inst"] += n
		default:
			g["int_inst"] += n
		}
	}
	return g
}

// Table renders analyses as an aligned text table.
func Table(as []Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %8s %9s %9s %9s %8s %8s %9s\n",
		"kernel", "time", "bound", "GIPS", "noPred", "II(L1)", "II(gbl)", "pred%", "local%")
	for _, a := range as {
		fmt.Fprintf(&b, "%-26s %10s %8s %9.3f %9.3f %9.4f %8.4f %8.1f %9.1f\n",
			a.Kernel, a.Time.Round(time.Microsecond), a.Bound,
			a.WarpGIPS, a.NonPredWarpGIPS, a.IntensityL1, a.IntensityGlobal,
			100*a.PredicationRatio, a.LocalSharePct)
	}
	fmt.Fprintf(&b, "ceilings: peak %.1f warp GIPS; stride-1 wall II=%.4f; divergent wall II=%.4f\n",
		as[0].PeakGIPS, as[0].Stride1WallII, as[0].Stride8WallII)
	return b.String()
}

// BreakdownTable renders Fig 10's grouped instruction counts for several
// kernels side by side.
func BreakdownTable(as []Analysis) string {
	groups := []string{"global_memory_inst", "local_memory_inst", "fp_inst", "int_inst"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "group")
	for _, a := range as {
		fmt.Fprintf(&b, " %16s", a.Kernel)
	}
	b.WriteByte('\n')
	for _, g := range groups {
		fmt.Fprintf(&b, "%-22s", g)
		for _, a := range as {
			fmt.Fprintf(&b, " %16d", a.GroupBreakdown()[g])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Merge aggregates several kernel results (e.g., all batches of one kernel
// version) into a single result for analysis.
func Merge(name string, cfg simt.DeviceConfig, ks []simt.KernelResult) simt.KernelResult {
	var out simt.KernelResult
	out.Kernel = name
	for i := range ks {
		out.Stats.Add(&ks[i].Stats)
		out.Time += ks[i].Time
	}
	_, out.Bound = simt.TimeFor(cfg, &out.Stats)
	return out
}
