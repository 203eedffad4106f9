package dist_test

import (
	"testing"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/ledger"
	"mhm2sim/internal/ledger/ledgertest"
	"mhm2sim/internal/report"
)

// TestDistReportGolden pins one whole run's report: four device ranks under
// the component policy with two joins, a leave, a crash, two stragglers and
// a dropped exchange. Report.String() must equal the text recorded before
// the round was split into phases, with the host-measured component pass
// time zeroed, and the report.Build JSON's modeled numbers its ledger lines.
func TestDistReportGolden(t *testing.T) {
	cfg := dist.DefaultConfig(4)
	cfg.Pipeline.Rounds = []int{21, 33}
	cfg.ShardPolicy = dist.ShardComponent
	cfg.Elastic = "join@r1:2,leave@r1:1"
	var err error
	cfg.Faults, err = faults.NewPlan("straggler=2,drop=1,rank-crash=1", 7, 4, len(cfg.Pipeline.Rounds))
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := dist.Run(dist.BuildPairs(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.ComponentPassTime = 0
	ledgertest.Golden(t, "testdata/dist_report.golden.txt", rep.String())
	ledgertest.Golden(t, "testdata/dist_report.golden.ledger",
		ledger.Render(ledger.Append(nil, "report", "fixture", report.Build(res, rep))))
}
