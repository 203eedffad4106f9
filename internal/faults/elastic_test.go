package faults

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestParseElastic pins the schedule materialization: join IDs minted in
// spec order from the initial rank count, leaves resolving to the
// highest-numbered live rank, joins before leaves within a round.
func TestParseElastic(t *testing.T) {
	p, err := ParseElastic("join@r1:2,leave@r1:1", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks != 4 || p.Rounds != 3 {
		t.Fatalf("plan shape %d×%d, want 4×3", p.Ranks, p.Rounds)
	}
	want := []Event{
		{Kind: RankJoin, Rank: 4, Round: 1},
		{Kind: RankJoin, Rank: 5, Round: 1},
		// The leave at the same round runs after the joins, so it retires
		// the youngest joiner.
		{Kind: RankCrash, Rank: 5, Round: 1},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(p.Events), len(want), p.Events)
	}
	for i, ev := range p.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if got := p.Capacity(); got != 6 {
		t.Errorf("Capacity = %d, want 6 (4 initial + 2 joins)", got)
	}
	if err := p.Validate(4); err != nil {
		t.Errorf("parsed schedule fails validation: %v", err)
	}
}

// TestParseElasticLeaveOrder: leaves across rounds retire the highest
// still-live rank at each point of the replay.
func TestParseElasticLeaveOrder(t *testing.T) {
	p, err := ParseElastic("leave@r0:1,join@r1:1,leave@r2:1", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: RankCrash, Rank: 2, Round: 0}, // highest initial rank
		{Kind: RankJoin, Rank: 3, Round: 1},
		{Kind: RankCrash, Rank: 3, Round: 2}, // the joiner is now highest
	}
	for i, ev := range p.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

// TestParseElasticErrors enumerates the rejection paths with their spec
// shapes.
func TestParseElasticErrors(t *testing.T) {
	cases := []struct {
		spec string
		frag string // expected error fragment
	}{
		{"", "empty elastic"},
		{"join@r1", "is not join@r<round>:<count>"},
		{"grow@r1:1", "unknown verb"},
		{"join@1:1", "is not join@r<round>:<count>"},
		{"join@rX:1", "bad round"},
		{"join@r-1:1", "bad round"},
		{"join@r5:1", "targets round 5 of a 2-round run"},
		{"join@r1:0", "bad count"},
		{"join@r1:x", "bad count"},
		{"leave@r0:3", "leaves no live rank"},
		{"leave@r0:1,leave@r1:2", "leaves no live rank"},
	}
	for _, c := range cases {
		_, err := ParseElastic(c.spec, 3, 2)
		if err == nil {
			t.Errorf("spec %q accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("spec %q: error %q lacks %q", c.spec, err, c.frag)
		}
	}
	if _, err := ParseElastic("join@r0:1", 0, 2); err == nil {
		t.Error("zero initial ranks accepted")
	}
}

// TestPlanMerge: shape-checked event concatenation with nil-safety on both
// sides.
func TestPlanMerge(t *testing.T) {
	var nilPlan *Plan
	if m, err := nilPlan.Merge(nil); err != nil || m != nil {
		t.Errorf("nil.Merge(nil) = %v, %v; want nil, nil", m, err)
	}
	p := &Plan{Ranks: 2, Rounds: 2, Events: []Event{{Kind: Straggler, Rank: 0, Round: 0, Factor: 4}}}
	if m, err := nilPlan.Merge(p); err != nil || m != p {
		t.Errorf("nil.Merge(p) did not pass p through: %v, %v", m, err)
	}
	if m, err := p.Merge(nil); err != nil || m != p {
		t.Errorf("p.Merge(nil) did not pass p through: %v, %v", m, err)
	}
	q, err := ParseElastic("join@r1:1", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Merge(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) != 2 {
		t.Errorf("merged %d events, want 2", len(m.Events))
	}
	if m.Capacity() != 3 {
		t.Errorf("merged capacity %d, want 3", m.Capacity())
	}
	if _, err := p.Merge(&Plan{Ranks: 4, Rounds: 2}); err == nil {
		t.Error("shape-mismatched merge accepted")
	}
}

// TestValidateJoins: the replay-based validation accepts converging
// schedules and rejects out-of-range or duplicated join IDs and schedules
// that kill every rank.
func TestValidateJoins(t *testing.T) {
	good := &Plan{Ranks: 2, Rounds: 2, Events: []Event{
		{Kind: RankJoin, Rank: 2, Round: 0},
		{Kind: RankCrash, Rank: 0, Round: 1},
	}}
	if err := good.Validate(2); err != nil {
		t.Errorf("converging join schedule rejected: %v", err)
	}
	bad := []*Plan{
		// Join ID below the initial rank count (would reuse a slot).
		{Ranks: 2, Rounds: 2, Events: []Event{{Kind: RankJoin, Rank: 1, Round: 0}}},
		// Duplicate join ID.
		{Ranks: 2, Rounds: 2, Events: []Event{
			{Kind: RankJoin, Rank: 2, Round: 0}, {Kind: RankJoin, Rank: 2, Round: 1}}},
		// Crashing both initial ranks with no joiner to carry on.
		{Ranks: 2, Rounds: 2, Events: []Event{
			{Kind: RankCrash, Rank: 0, Round: 0}, {Kind: RankCrash, Rank: 1, Round: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p.Events)
		}
	}
}

// TestJoinsAt: the injector surfaces each round's joins in ascending rank
// order.
func TestJoinsAt(t *testing.T) {
	p, err := ParseElastic("join@r1:2,join@r0:1", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	if got := in.JoinsAt(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("JoinsAt(0) = %v, want [2]", got)
	}
	if got := in.JoinsAt(1); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("JoinsAt(1) = %v, want [3 4]", got)
	}
	if got := in.JoinsAt(2); len(got) != 0 {
		t.Errorf("JoinsAt(2) = %v, want empty", got)
	}
	var nilIn *Injector
	if got := nilIn.JoinsAt(0); got != nil {
		t.Errorf("nil injector JoinsAt = %v, want nil", got)
	}
}

// TestScheduleCeiling: a spec's counts are compared with MaxRanks before
// anything is sized from them — "join@r0:20000000" used to replay 20 M events
// (5.5 GB) before any check ran.
func TestScheduleCeiling(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range []string{
		"join@r0:20000000",
		"join@r0:2000000000",
		fmt.Sprintf("join@r0:%d,join@r1:1", MaxRanks-2),
		"join@r0:9223372036854775807,join@r1:9223372036854775807",
	} {
		if _, err := ParseElastic(spec, 2, 3); err == nil {
			t.Errorf("ParseElastic(%q) accepted", spec)
		}
	}
	if _, err := ParseElastic("leave@r0:1", MaxRanks+1, 3); err == nil {
		t.Error("ParseElastic accepted more initial ranks than MaxRanks")
	}
	for _, spec := range []string{"drop=2000000000", "join=2000000000", "oom=1000,oom=1000", fmt.Sprintf("join=%d", MaxRanks-1)} {
		if _, err := NewPlan(spec, 1, 2, 3); err == nil {
			t.Errorf("NewPlan(%q) accepted", spec)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejections allocated %d bytes, want < 1 MiB", got)
	}
	if p, err := ParseElastic(fmt.Sprintf("join@r0:%d", MaxRanks-2), 2, 3); err != nil || p.Capacity() != MaxRanks {
		t.Errorf("schedule reaching exactly MaxRanks: capacity %d, %v", p.Capacity(), err)
	}
}
