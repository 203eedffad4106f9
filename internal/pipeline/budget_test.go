package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"mhm2sim/internal/gpucount"
)

// TestBudgetRunBitIdentical is the pipeline-level determinism guarantee
// of budget mode: counting through the Bloom prefilter and multi-pass
// partitioned tables must yield bit-identical contigs and scaffolds to
// the unbounded host count, because the filter drops only sub-MinCount
// k-mers the error filter would drop anyway and pass counts are exact.
func TestBudgetRunBitIdentical(t *testing.T) {
	pairs, base := buildPairs(t), reference(t)

	cfg := testPipelineConfig()
	cfg.MemBudget = 8 << 20
	res, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Contigs, base.Contigs) {
		t.Error("budget-mode contigs differ from the unbounded run")
	}
	if !reflect.DeepEqual(res.Scaffolds, base.Scaffolds) {
		t.Error("budget-mode scaffolds differ from the unbounded run")
	}
	kb := res.Work.KmerBudget
	if kb.Passes < len(cfg.Rounds) {
		t.Errorf("budget run executed %d passes over %d rounds", kb.Passes, len(cfg.Rounds))
	}
	if kb.Configured != cfg.MemBudget || kb.Effective != cfg.MemBudget {
		t.Errorf("budget accounting: %+v", kb)
	}
	if kb.FilteredSingletons == 0 {
		t.Error("error reads present but the prefilter rejected nothing")
	}
	if kb.OOMReplans != 0 || kb.SpillPasses != 0 {
		t.Errorf("fault-free run recorded degradation: %+v", kb)
	}
	// A second budget run is bit-identical (fresh counting device).
	res2, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Contigs, res.Contigs) {
		t.Error("budget-mode contigs differ across identical runs")
	}
	if !reflect.DeepEqual(res2.Work.KmerBudget, kb) {
		t.Errorf("budget accounting differs across identical runs:\n%+v\n%+v", res2.Work.KmerBudget, kb)
	}
}

// TestBudgetOOMPressure: an OOM event halves the effective budget, which
// re-plans counting into more, smaller passes — same contigs, nonzero
// degradation counters.
func TestBudgetOOMPressure(t *testing.T) {
	pairs := buildPairs(t)
	cfg := testPipelineConfig()
	cfg.MemBudget = 8 << 20
	base, err := Run(pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	press := testPipelineConfig()
	press.MemBudget = 8 << 20
	press.MemPressure = func(round int) int { return 1 } // one sticky OOM event before round 0
	res, err := Run(pairs, press)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Contigs, base.Contigs) {
		t.Error("OOM-degraded contigs differ from the fault-free budget run")
	}
	kb := res.Work.KmerBudget
	if kb.OOMReplans != 1 {
		t.Errorf("one sticky OOM event recorded %d replans (events are counted once)", kb.OOMReplans)
	}
	if kb.SpillPasses == 0 {
		t.Error("halved budget did not add spill passes")
	}
	if kb.Passes <= base.Work.KmerBudget.Passes {
		t.Errorf("degraded run passes %d ≤ fault-free %d", kb.Passes, base.Work.KmerBudget.Passes)
	}
	if kb.Effective >= kb.Configured {
		t.Errorf("effective budget %d not shrunk below configured %d", kb.Effective, kb.Configured)
	}
}

func TestValidateMemBudget(t *testing.T) {
	cfg := testPipelineConfig()
	cfg.MemBudget = -1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "MemBudget") {
		t.Errorf("negative budget: %v", err)
	}
	cfg.MemBudget = gpucount.MinMemBudget - 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "minimum") {
		t.Errorf("sub-minimum budget: %v", err)
	}
	cfg.MemBudget = gpucount.MinMemBudget
	if err := cfg.Validate(); err != nil {
		t.Errorf("minimum budget rejected: %v", err)
	}
	cfg.MemBudget = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("unset budget rejected: %v", err)
	}
}
