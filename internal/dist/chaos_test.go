package dist

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/faults"
)

// chaosConfig builds a distributed config with a seeded fault plan.
func chaosConfig(t *testing.T, ranks int, spec string, seed int64) Config {
	t.Helper()
	cfg := testDistConfig(ranks)
	// Generous retry budget so colliding drop/corrupt events on one
	// exchange stay recoverable; the exhaustion path has its own test.
	cfg.Fabric.MaxRetries = 10
	plan, err := faults.NewPlan(spec, seed, ranks, len(cfg.Pipeline.Rounds))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	return cfg
}

// TestChaosKernelAbortResplits: injected kernel aborts surface as
// recoverable table faults, so the batch driver re-splits and the final
// assembly is unchanged.
func TestChaosKernelAbortResplits(t *testing.T) {
	pairs, base, _ := baseline(t)
	res, rep, err := Run(pairs, chaosConfig(t, 4, "kernel-abort=2", 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.BatchResplits == 0 {
		t.Error("kernel aborts scheduled but no batch re-splits recorded")
	}
	if !reflect.DeepEqual(res.Contigs, base.Contigs) {
		t.Error("contigs differ after kernel-abort recovery")
	}
}

// TestChaosStragglerAndDelaySlowOnly: stragglers and latency spikes change
// modeled time, never results.
func TestChaosStragglerAndDelaySlowOnly(t *testing.T) {
	pairs := buildPairs(t)
	clean, cleanRep, err := Run(pairs, testDistConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := Run(pairs, chaosConfig(t, 4, "straggler=1,delay=1", 9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Contigs, clean.Contigs) {
		t.Error("contigs differ under straggler/delay injection")
	}
	if rep.Recovery.Stragglers == 0 {
		t.Error("straggler scheduled but not recorded")
	}
	if rep.Wall <= cleanRep.Wall {
		t.Errorf("injected slowdowns did not slow the modeled wall: %v vs %v", rep.Wall, cleanRep.Wall)
	}
}

// TestChaosRetriesExhausted: an exchange failing past the retry budget
// surfaces ErrUnrecoverable from Run.
func TestChaosRetriesExhausted(t *testing.T) {
	cfg := testDistConfig(2)
	cfg.Fabric.MaxRetries = 1
	cfg.Faults = &faults.Plan{Ranks: 2, Rounds: 2, Events: []faults.Event{
		{Kind: faults.FabricDrop, Exchange: 1, Times: 3},
	}}
	_, _, err := Run(buildPairs(t), cfg)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("exhausted retries returned %v, want ErrUnrecoverable", err)
	}
}

// TestChaosPlanShapeRejected: plans built for a different shape fail
// validation instead of silently misfiring.
func TestChaosPlanShapeRejected(t *testing.T) {
	cfg := testDistConfig(4)
	plan, err := faults.NewPlan("rank-crash=1", 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if _, _, err := Run(nil, cfg); err == nil {
		t.Error("plan for 8 ranks accepted by a 4-rank run")
	}
	plan, err = faults.NewPlan("drop=1", 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if _, _, err := Run(nil, cfg); err == nil {
		t.Error("plan for 5 rounds accepted by a 2-round run")
	}
}

// TestFabricPartialDefaults pins the per-field defaulting: overriding one
// fabric knob must not discard the defaults of the others (the old
// whole-struct zero compare replaced partially-set configs wholesale).
func TestFabricPartialDefaults(t *testing.T) {
	cfg := testDistConfig(2)
	cfg.Fabric = FabricConfig{BandwidthGBps: 25}
	got := cfg.withDefaults().Fabric
	if got.BandwidthGBps != 25 {
		t.Errorf("override lost: bandwidth %g", got.BandwidthGBps)
	}
	if got.LatencyPerMsg != DefaultLatencyPerMsg {
		t.Errorf("latency %v, want default %v", got.LatencyPerMsg, DefaultLatencyPerMsg)
	}
	if got.AggBufferBytes != DefaultAggBufferBytes {
		t.Errorf("agg buffer %d, want default %d", got.AggBufferBytes, DefaultAggBufferBytes)
	}
	if got.ExchangeTimeout != DefaultExchangeTimeout || got.MaxRetries != DefaultMaxRetries ||
		got.RetryBackoff != DefaultRetryBackoff {
		t.Errorf("retry knobs not defaulted: %+v", got)
	}
	// The partially-set config must validate and run through NewFabric too.
	if _, err := NewFabric(2, got); err != nil {
		t.Errorf("defaulted partial config rejected: %v", err)
	}
	// Explicit non-default values survive defaulting untouched.
	cfg.Fabric = FabricConfig{
		LatencyPerMsg:   clock.Fabric(time.Microsecond),
		BandwidthGBps:   1,
		AggBufferBytes:  1 << 10,
		ExchangeTimeout: clock.Fabric(time.Millisecond),
		MaxRetries:      7,
		RetryBackoff:    clock.Fabric(time.Microsecond),
	}
	if got := cfg.withDefaults().Fabric; got != cfg.Fabric {
		t.Errorf("fully-set config mutated by defaulting: %+v", got)
	}
}
