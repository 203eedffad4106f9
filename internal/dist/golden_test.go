package dist_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/report"
	"mhm2sim/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dist_report.golden.{txt,json}")

// TestDistReportGolden pins one whole run's report: four device ranks under
// the component policy with two joins, a leave, a crash, two stragglers and
// a dropped exchange. Report.String() and the report.Build JSON must equal
// the files recorded before the round was split into phases; only the
// host-measured durations (component pass time, stage walls) are zeroed.
func TestDistReportGolden(t *testing.T) {
	p := synth.ArcticSynthPreset()
	p.Com.NumGenomes = 3
	p.Com.MinGenomeLen, p.Com.MaxGenomeLen = 6_000, 9_000
	p.Com.SharedFrac = 0
	p.Reads.Depth = 14
	p.Reads.ErrorRate = 0.002
	_, pairs, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := dist.DefaultConfig(4)
	cfg.Pipeline.Rounds = []int{21, 33}
	cfg.ShardPolicy = dist.ShardComponent
	cfg.Elastic = "join@r1:2,leave@r1:1"
	cfg.Faults, err = faults.NewPlan("straggler=2,drop=1,rank-crash=1", 7, 4, len(cfg.Pipeline.Rounds))
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := dist.Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.ComponentPassTime = 0
	jr := report.Build(res, rep)
	jr.TotalNS = 0
	for s := range jr.StagesNS {
		jr.StagesNS[s] = 0
	}
	var js bytes.Buffer
	if err := jr.Encode(&js); err != nil {
		t.Fatal(err)
	}
	for path, got := range map[string][]byte{
		"testdata/dist_report.golden.txt":  []byte(rep.String()),
		"testdata/dist_report.golden.json": js.Bytes(),
	} {
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed:\n%s\nwant:\n%s", path, got, want)
		}
	}
}
