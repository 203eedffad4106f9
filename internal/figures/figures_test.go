package figures

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
)

func TestSetups(t *testing.T) {
	for _, name := range []string{"arcticsynth", "WA"} {
		if _, err := StandardSetup(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		q, err := QuickSetup(name)
		if err != nil {
			t.Errorf("%s quick: %v", name, err)
		}
		if len(q.Config.Rounds) == 0 {
			t.Error("quick setup lost rounds")
		}
	}
	if _, err := StandardSetup("bogus"); err == nil {
		t.Error("bogus preset accepted")
	}
}

// TestRunRooflineClosesItsDevices: the two devices the kernels are replayed
// on are the function's own; left open, their parked warp pools pin the arenas.
func TestRunRooflineClosesItsDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var work []*locassm.CtgWithReads
	for i := 0; i < 6; i++ {
		genome := make([]byte, 600)
		for j := range genome {
			genome[j] = dna.Alphabet[rng.Intn(4)]
		}
		c := &locassm.CtgWithReads{ID: int64(i), Seq: genome[200:400]}
		for pos := 330; pos+80 <= 600; pos += 9 {
			c.RightReads = append(c.RightReads, dna.Read{
				ID: "r", Seq: genome[pos : pos+80], Qual: bytes.Repeat([]byte{dna.QualChar(35)}, 80),
			})
		}
		work = append(work, c)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := RunRoofline(work, locassm.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Closed pools' workers exit on their own schedule.
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d → %d over three roofline runs", before, n)
	}
}

func TestAllFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure rendering is expensive")
	}
	s, err := QuickSetup("arcticsynth")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	m, f64, err := Model(res, s.Config.Engine.Config)
	if err != nil {
		t.Fatal(err)
	}

	fig2 := Fig2(m, f64)
	if !strings.Contains(fig2, "local assembly") || !strings.Contains(fig2, "2128") {
		t.Errorf("Fig2 malformed:\n%s", fig2)
	}
	fig3 := Fig3(res.Bins)
	if !strings.Contains(fig3, "bin3") {
		t.Errorf("Fig3 malformed:\n%s", fig3)
	}
	rf, err := RunRoofline(res.LAWorkload, s.Config.Engine.Config, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rf.V2.WarpGIPS <= 0 || rf.V1.WarpGIPS <= 0 {
		t.Error("roofline GIPS not positive")
	}
	// The headline claims of Figs 8-10.
	if rf.V2.IntensityL1 <= rf.V1.IntensityL1 {
		t.Errorf("v2 L1 intensity %f not above v1 %f", rf.V2.IntensityL1, rf.V1.IntensityL1)
	}
	if rf.V2.GroupBreakdown()["global_memory_inst"] >= rf.V1.GroupBreakdown()["global_memory_inst"] {
		t.Error("v2 does not reduce global-memory instructions (Fig 10)")
	}
	if !strings.Contains(Fig8Fig9(rf), "489.6") {
		t.Error("roofline table missing peak")
	}
	if !strings.Contains(Fig10(rf), "global_memory_inst") {
		t.Error("Fig10 table malformed")
	}

	fig12, err := Fig12(m, res.Timings)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig12, "4.3") {
		t.Errorf("Fig12 missing speedup:\n%s", fig12)
	}
	fig13 := Fig13(m, f64)
	if !strings.Contains(fig13, "1024") {
		t.Errorf("Fig13 missing node sweep:\n%s", fig13)
	}
	fig14 := Fig14(m, f64)
	if !strings.Contains(fig14, "1024") {
		t.Errorf("Fig14 missing node sweep:\n%s", fig14)
	}

	// The scorecard, filled from the same results. Its ranges are stated for
	// the standard setups, so on the quick one only what holds on any
	// workload is asserted: every row says what it was measured on, and the
	// fitted rows measure what they were fitted to.
	rows, err := Scorecard(Measured{Arctic: res, Roofline: rf, Scale: 1, WA: res, Model: m, F64: f64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 25 {
		t.Errorf("scorecard has %d rows, want one per claim of EXPERIMENTS.md", len(rows))
	}
	anchors := 0
	for _, r := range rows {
		if r.Fig == "" || r.Claim == "" || r.Paper == "" || r.Workload == "" || r.Clock == "" {
			t.Errorf("row %+v: empty figure, claim, paper value, workload or clock", r)
		}
		if r.Kind == KnownDeviation && r.Cause == "" {
			t.Errorf("%s, %s: a known deviation without its cause", r.Fig, r.Claim)
		}
		if r.Kind == Anchor {
			anchors++
			if r.Measured < r.Lo || r.Measured > r.Hi {
				t.Errorf("anchor %s, %s measures %g, fitted to [%g, %g]", r.Fig, r.Claim, r.Measured, r.Lo, r.Hi)
			}
		}
	}
	if anchors == 0 {
		t.Error("scorecard has no anchor row")
	}
	if rf.Mismatches != 0 {
		t.Errorf("%d kernel results differ from the CPU reference's", rf.Mismatches)
	}
}

// TestVerdictRule: an anchor never fails the run, wherever it lands; a
// prediction outside its range fails it and is named; a known deviation that
// lands inside the paper's range is reported as closed, not silently passed.
func TestVerdictRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		kind     Kind
		measured float64
		verdict  string
		ok       bool
	}{
		{"anchor on its value", Anchor, 5, "— fitted", true},
		{"anchor off its value", Anchor, 50, "— fitted", true},
		{"prediction inside", Prediction, 4, "✓", true},
		{"prediction on the bound", Prediction, 6, "✓", true},
		{"prediction outside", Prediction, 6.5, "✗ FAILED", false},
		{"prediction that is not a number", Prediction, math.NaN(), "✗ FAILED", false},
		{"deviation still outside", KnownDeviation, 9, "✗ known deviation", true},
		{"deviation closed", KnownDeviation, 5, "closed — update the row", false},
	} {
		r := Row{Fig: "Fig 0", Claim: tc.name, Measured: tc.measured, Lo: 4, Hi: 6, Kind: tc.kind, Cause: "a cause"}
		verdict, ok := r.Verdict()
		if verdict != tc.verdict || ok != tc.ok {
			t.Errorf("%s: verdict %q ok=%v, want %q ok=%v", tc.name, verdict, ok, tc.verdict, tc.ok)
		}
		out, failed := RenderScorecard([]Row{r})
		if !strings.Contains(out, tc.name) || !strings.Contains(out, tc.verdict) {
			t.Errorf("%s: row or verdict missing from\n%s", tc.name, out)
		}
		if named := len(failed) == 1 && failed[0].Claim == tc.name; named == tc.ok {
			t.Errorf("%s: failed rows %v, want it named exactly when it fails", tc.name, failed)
		}
		if tc.kind == KnownDeviation != strings.Contains(out, "a cause") {
			t.Errorf("%s: the cause is printed for known deviations only:\n%s", tc.name, out)
		}
	}
	// An open side of a range is printed as one.
	out, _ := RenderScorecard([]Row{{Measured: 3, Lo: 1, Hi: math.Inf(1), Kind: Prediction}})
	if !strings.Contains(out, "≥ 1") || !strings.Contains(out, "✓") {
		t.Errorf("open range:\n%s", out)
	}
}
