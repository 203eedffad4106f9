package main

import (
	"math"
	"sort"
)

// stat is the summary every reported metric carries: the sample count, the
// median and the quartiles. A single-valued metric (a count, a peak) has
// n = 1 and q1 = median = q3.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile interpolates linearly between order statistics of sorted xs at
// position p·(n−1). It is used for medians and quartiles, where neighbours
// are close; job-latency percentiles go through quantileEstimate instead.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarize(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it (choosing-metrics §1): p90 needs n ≥ 100.
// With fewer than 40 samples no tail is resolvable and it returns 0.5.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// quantileEstimate is the p-quantile of xs by nearest rank, with the
// distribution-free interval that holds the true quantile half the time:
// the number of samples below it is Binomial(n, p), so the order statistics
// at ranks np ± 0.674·√(np(1−p)) bracket it. A population quantile has no
// quartiles of its own kind; this interval stands in for them, so that a
// comparison can tell a moved tail from an ill-determined one.
func quantileEstimate(xs []float64, p float64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(rank float64) float64 {
		i := int(rank) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	half := 0.674 * math.Sqrt(n*p*(1-p))
	return stat{N: len(s), Median: at(math.Ceil(p * n)), Q1: at(math.Floor(p*n - half)), Q3: at(math.Ceil(p*n + half))}
}
