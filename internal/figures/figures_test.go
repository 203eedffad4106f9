package figures

import (
	"bytes"
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
	res, err := s.Run(false)
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
}
