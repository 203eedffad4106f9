// Package histo renders compact text histograms for the command-line
// tools (contig length distributions, insert sizes, bin populations).
package histo

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a set of labeled counts.
type Histogram struct {
	Title  string
	Labels []string
	Counts []int64
}

// FromValues builds a log2-bucketed histogram of positive values (the
// natural scale for contig lengths).
func FromValues(title string, values []int) Histogram {
	h := Histogram{Title: title}
	if len(values) == 0 {
		return h
	}
	maxV := 0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 1 {
		return h
	}
	nb := int(math.Log2(float64(maxV))) + 1
	counts := make([]int64, nb)
	for _, v := range values {
		if v < 1 {
			continue
		}
		counts[int(math.Log2(float64(v)))]++
	}
	// Trim empty leading buckets.
	first := 0
	for first < nb-1 && counts[first] == 0 {
		first++
	}
	for b := first; b < nb; b++ {
		h.Labels = append(h.Labels, fmt.Sprintf("%d-%d", 1<<uint(b), 1<<uint(b+1)-1))
		h.Counts = append(h.Counts, counts[b])
	}
	return h
}

// Render draws the histogram with bars scaled to width characters.
func (h Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	if len(h.Counts) == 0 {
		b.WriteString("  (empty)\n")
		return b.String()
	}
	labelW := 0
	var maxC int64 = 1
	for i, l := range h.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
		if h.Counts[i] > maxC {
			maxC = h.Counts[i]
		}
	}
	for i, l := range h.Labels {
		bar := int(int64(width) * h.Counts[i] / maxC)
		if h.Counts[i] > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  %-*s %8d %s\n", labelW, l, h.Counts[i], strings.Repeat("#", bar))
	}
	return b.String()
}
