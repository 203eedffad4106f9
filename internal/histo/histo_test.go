package histo

import (
	"strings"
	"testing"
)

func TestFromValuesBuckets(t *testing.T) {
	h := FromValues("lengths", []int{1, 2, 3, 4, 5, 6, 7, 8, 1000})
	// Buckets: [1,1]=1, [2,3]=2, [4,7]=4, [8,15]=1, ..., [512,1023]=1.
	if len(h.Counts) == 0 {
		t.Fatal("no buckets")
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 9 {
		t.Errorf("histogram lost values: %d of 9", total)
	}
	if h.Labels[0] != "1-1" {
		t.Errorf("first label %q", h.Labels[0])
	}
	if h.Labels[len(h.Labels)-1] != "512-1023" {
		t.Errorf("last label %q", h.Labels[len(h.Labels)-1])
	}
}

func TestFromValuesEmpty(t *testing.T) {
	h := FromValues("empty", nil)
	if out := h.Render(20); !strings.Contains(out, "(empty)") {
		t.Errorf("empty render: %q", out)
	}
	h = FromValues("zeroes", []int{0, 0})
	if len(h.Counts) != 0 {
		t.Error("non-positive values bucketed")
	}
}

func TestRenderScaling(t *testing.T) {
	h := Histogram{Title: "t", Labels: []string{"a", "b", "c"}, Counts: []int64{100, 50, 1}}
	out := h.Render(20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 20)) {
		t.Error("max bar not full width")
	}
	if !strings.Contains(lines[3], "#") {
		t.Error("nonzero count rendered with no bar")
	}
}
