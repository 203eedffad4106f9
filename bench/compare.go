package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one (workload, metric) row of a comparison.
type verdict string

const (
	vOK         verdict = "ok"
	vImproved   verdict = "improved"
	vRegression verdict = "REGRESSION"
	vUnresolved verdict = "unresolved"
	vMismatch   verdict = "MISMATCH"
	vInfo       verdict = "-"
)

func (v verdict) fails() bool { return v == vRegression || v == vMismatch }

// judge compares B against A for one metric.
//
// An exact metric (bound 0: modeled times, counts, quality) must repeat
// bit for bit — but only when both files were measured on the same seed;
// across seeds the inputs differ and exact metrics are shown without a
// verdict. A bounded metric regresses when B's median is worse than A's by
// more than the bound. The row is unresolved, which is not a pass and not a
// failure, when the difference cannot be told from noise: when A's own
// inter-quartile spread, plus — for a metric on a host clock — the share by
// which the host control moved between the two runs (hostShift), is wider
// than the bound, or when A is a single sample. Per-layer timings and the
// control itself carry no bound and are shown for attribution only.
func judge(d *metricDef, a, b metricValue, sameSeed bool, hostShift float64) verdict {
	if a.N == 0 && b.N == 0 {
		return vInfo
	}
	if d.Exact {
		switch {
		case !sameSeed:
			return vInfo
		case a.Median != b.Median || a.N == 0 || b.N == 0:
			return vMismatch
		}
		return vOK
	}
	if d.Bound == 0 {
		return vInfo
	}
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return vMismatch
	}
	if a.N == 1 && a.Q1 == a.Q3 {
		return vUnresolved // one timing (la_dump's capture, run alone) has no spread to judge by
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := (a.Q3 - a.Q1) / math.Abs(a.Median)
	if d.hostClock() {
		spread += hostShift
	}
	switch {
	case spread > d.Bound:
		return vUnresolved
	case worse > d.Bound:
		return vRegression
	case worse < -d.Bound:
		return vImproved
	}
	return vOK
}

// compareResults prints one row per (workload, metric) and reports whether
// anything regressed. failed_frac is exact in one direction only: it may
// fall, never rise.
func compareResults(w io.Writer, a, b *benchResult) bool {
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "A: commit %s seed %d %s GOMAXPROCS %d\nB: commit %s seed %d %s GOMAXPROCS %d\n",
		a.Commit, a.Seed, a.Go, a.GOMAXPROCS, b.Commit, b.Seed, b.Go, b.GOMAXPROCS)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: exact metrics are not compared")
	}
	regressed := false
	counts := map[verdict]int{}
	for _, name := range workloadOrder {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			if wa != nil || wb != nil {
				fmt.Fprintf(w, "\n== %s: present in one file only\n", name)
				regressed = true
			}
			continue
		}
		// How far the host itself moved between the two runs, by the control.
		hostShift := 0.0
		if pa, pb := wa.Metrics[hostProbe], wb.Metrics[hostProbe]; pa.Median > 0 && pb.Median > 0 {
			hostShift = math.Abs(pb.Median/pa.Median - 1)
		}
		fmt.Fprintf(w, "\n== %s (host control moved by %.1f%%)\n%-42s %-9s %12s %12s %12s %4s %12s %12s %12s %4s %8s  %s\n", name, 100*hostShift,
			"metric", "unit", "A.median", "A.q1", "A.q3", "n", "B.median", "B.q1", "B.q3", "n", "B/A-1", "verdict")
		for i := range catalog {
			d := &catalog[i]
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			v := judge(d, ma, mb, sameSeed, hostShift)
			if d.Name == "failed_frac" {
				v = vOK
				if mb.Median > ma.Median {
					v = vRegression
				}
			}
			if ma.N == 0 && mb.N == 0 {
				continue
			}
			counts[v]++
			regressed = regressed || v.fails()
			rel := math.NaN()
			if ma.Median != 0 {
				rel = mb.Median/ma.Median - 1
			}
			fmt.Fprintf(w, "%-42s %-9s %12.6g %12.6g %12.6g %4d %12.6g %12.6g %12.6g %4d %+8.3f  %s\n",
				d.Name, d.Unit, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N, rel, v)
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d improved, %d unresolved, %d REGRESSION, %d MISMATCH\n",
		counts[vOK], counts[vImproved], counts[vUnresolved], counts[vRegression], counts[vMismatch])
	return regressed
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b benchResult
	for _, f := range []struct {
		path string
		into *benchResult
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
		if f.into.Schema != resultSchema {
			return false, fmt.Errorf("%s: schema %q, want %q", f.path, f.into.Schema, resultSchema)
		}
	}
	return compareResults(w, &a, &b), nil
}
