package faults

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	counts, err := ParseSpec("rank-crash=1, oom=2,drop=3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[Kind]int{RankCrash: 1, DeviceOOM: 2, FabricDrop: 3}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("ParseSpec = %v, want %v", counts, want)
	}
	if counts, err := ParseSpec(""); err != nil || len(counts) != 0 {
		t.Errorf("empty spec: %v, %v", counts, err)
	}
	for _, bad := range []string{"bogus=1", "oom", "oom=x", "oom=-1", "=2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	spec := "rank-crash=1,oom=2,kernel-abort=1,drop=2,corrupt=1,delay=1,straggler=2"
	a, err := NewPlan(spec, 42, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(spec, 42, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same (spec, seed, shape) produced different plans")
	}
	c, err := NewPlan(spec, 43, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical event placement")
	}
	if len(a.Events) != 10 {
		t.Errorf("plan has %d events, want 10", len(a.Events))
	}
	if err := a.Validate(8); err != nil {
		t.Errorf("generated plan fails validation: %v", err)
	}
	if err := a.Validate(4); err == nil {
		t.Error("plan for 8 ranks validated against 4")
	}
}

func TestNewPlanBounds(t *testing.T) {
	// Crashes capped so at least one rank survives.
	if _, err := NewPlan("rank-crash=2", 1, 2, 3); err == nil {
		t.Error("2 crashes on 2 ranks accepted")
	}
	p, err := NewPlan("rank-crash=3", 7, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, ev := range p.Events {
		if seen[ev.Rank] {
			t.Errorf("rank %d crashed twice", ev.Rank)
		}
		seen[ev.Rank] = true
		if ev.Rank < 0 || ev.Rank >= 4 || ev.Round < 0 || ev.Round >= 2 {
			t.Errorf("event out of bounds: %+v", ev)
		}
	}
	if _, err := NewPlan("oom=1", 1, 0, 3); err == nil {
		t.Error("0 ranks accepted")
	}
}

func TestInjectorQueries(t *testing.T) {
	p := &Plan{Ranks: 4, Rounds: 3, Events: []Event{
		{Kind: RankCrash, Rank: 2, Round: 1},
		{Kind: RankCrash, Rank: 0, Round: 1},
		{Kind: DeviceOOM, Rank: 1, Round: 1},
		{Kind: KernelAbort, Rank: 3, Round: 0},
		{Kind: FabricDrop, Exchange: 2, Times: 2},
		{Kind: FabricCorrupt, Exchange: 2, Times: 1},
		{Kind: FabricDelay, Exchange: 4, Factor: 3},
		{Kind: Straggler, Rank: 1, Round: 2, Factor: 2.5},
	}}
	in := NewInjector(p)

	if got := in.CrashesAt(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("CrashesAt(1) = %v", got)
	}
	if got := in.CrashesAt(0); got != nil {
		t.Errorf("CrashesAt(0) = %v", got)
	}
	if in.DeviceFault(1, 0) {
		t.Error("device faulted before its round")
	}
	if !in.DeviceFault(1, 1) || !in.DeviceFault(1, 2) {
		t.Error("device fault not sticky from its round on")
	}
	if in.DeviceFault(0, 2) {
		t.Error("wrong rank's device faulted")
	}
	if n := in.KernelAborts(3, 0); n != 1 {
		t.Errorf("KernelAborts(3,0) = %d", n)
	}
	if n := in.KernelAborts(3, 1); n != 0 {
		t.Errorf("KernelAborts(3,1) = %d", n)
	}
	times, corrupt := in.ExchangeFailures(2)
	if times != 3 || !corrupt {
		t.Errorf("ExchangeFailures(2) = %d, %v", times, corrupt)
	}
	if times, corrupt := in.ExchangeFailures(3); times != 0 || corrupt {
		t.Errorf("ExchangeFailures(3) = %d, %v", times, corrupt)
	}
	if f := in.ExchangeDelay(4); f != 3 {
		t.Errorf("ExchangeDelay(4) = %v", f)
	}
	if f := in.ExchangeDelay(2); f != 1 {
		t.Errorf("ExchangeDelay(2) = %v", f)
	}
	if f := in.StragglerFactor(1, 2); f != 2.5 {
		t.Errorf("StragglerFactor(1,2) = %v", f)
	}
	if f := in.StragglerFactor(1, 1); f != 1 {
		t.Errorf("StragglerFactor(1,1) = %v", f)
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if in != NewInjector(nil) {
		t.Error("NewInjector(nil) is not nil")
	}
	if in.CrashesAt(0) != nil || in.DeviceFault(0, 0) || in.KernelAborts(0, 0) != 0 {
		t.Error("nil injector reported faults")
	}
	if times, corrupt := in.ExchangeFailures(0); times != 0 || corrupt {
		t.Error("nil injector reported exchange failures")
	}
	if in.ExchangeDelay(0) != 1 || in.StragglerFactor(0, 0) != 1 {
		t.Error("nil injector scaled time")
	}
	var p *Plan
	if err := p.Validate(4); err != nil {
		t.Errorf("nil plan validation: %v", err)
	}
	if s := p.String(); s != "no faults" {
		t.Errorf("nil plan String = %q", s)
	}
}

func TestPlanString(t *testing.T) {
	p, err := NewPlan("rank-crash=1,drop=1", 42, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "rank-crash") || !strings.Contains(s, "drop") {
		t.Errorf("String() = %q", s)
	}
}
