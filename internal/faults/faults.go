// Package faults is the seeded, deterministic fault-injection plane of the
// distributed runtime. A Plan is generated once from a spec string
// ("rank-crash=1,oom=2,drop=3"), a seed, and the run's shape (ranks ×
// rounds); the dist runtime, the simt devices, and the locassm batch driver
// query it at well-defined points — round boundaries, kernel launches,
// fabric exchanges — and exercise their recovery paths when an event fires.
//
// Determinism is the design center: all event placement happens up front
// from a seeded PRNG, and every query is a pure lookup over the event list,
// so the injected schedule is identical regardless of goroutine scheduling.
// That is what lets the chaos tests assert the headline invariant — any
// schedule that does not exhaust the retry budgets yields bit-identical
// contigs and scaffolds to the fault-free run.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// RankCrash kills a rank at a round boundary; its virtual shards are
	// re-dealt to the survivors.
	RankCrash Kind = iota
	// DeviceOOM poisons a rank's GPU before a round: every subsequent
	// kernel launch fails and the rank degrades to its host engine.
	DeviceOOM
	// KernelAbort makes one batch launch on a rank fail with a table-full
	// fault, exercising the driver's batch re-split path.
	KernelAbort
	// FabricDrop loses an exchange's aggregated messages: the stage times
	// out and is retried with backoff.
	FabricDrop
	// FabricCorrupt corrupts an exchange's payload: detected at ejection
	// (after the full transfer time) and retried.
	FabricCorrupt
	// FabricDelay is a latency spike multiplying one exchange's time.
	FabricDelay
	// Straggler slows one rank's compute for one round by a factor.
	Straggler
	// RankJoin adds a fresh rank to the collective at a round boundary: the
	// membership epoch bumps and the joiner receives whole virtual shards
	// from the incremental re-deal. Event.Rank is the new rank's ID, always
	// ≥ the run's initial rank count (joined ranks extend the ID space, they
	// never reuse an evicted slot).
	RankJoin

	numKinds
)

// specNames maps spec-string keys to kinds, in the order events are
// generated (fixed, so plans are reproducible).
var specNames = []struct {
	name string
	kind Kind
}{
	{"rank-crash", RankCrash},
	{"oom", DeviceOOM},
	{"kernel-abort", KernelAbort},
	{"drop", FabricDrop},
	{"corrupt", FabricCorrupt},
	{"delay", FabricDelay},
	{"straggler", Straggler},
	{"join", RankJoin},
}

// String names the kind as it appears in spec strings.
func (k Kind) String() string {
	for _, s := range specNames {
		if s.kind == k {
			return s.name
		}
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// Rank targets crash/OOM/abort/straggler events.
	Rank int
	// Round is the 0-based contigging round at which the event fires.
	Round int
	// Exchange is the 0-based ordinal of the fabric exchange targeted by
	// drop/corrupt/delay events (exchange 0 is the read scatter; each
	// round then performs a read exchange and a contig allgather).
	Exchange int
	// Times is how many consecutive attempts of the exchange fail before
	// the retry succeeds (drop/corrupt).
	Times int
	// Factor scales time for delay (exchange time) and straggler (rank
	// compute) events.
	Factor float64
}

// MaxRanks is the ceiling on every size a schedule is materialized from: a
// run's rank ID space (initial ranks plus all scheduled joins) and each
// kind's event count. Specs arrive from outside the program (a flag, a
// POSTed JobSpec), so the parsers compare against it before sizing
// anything, and front ends hold their own rank and device counts to it.
const MaxRanks = 1024

// Plan is a fully materialized fault schedule for one run shape.
type Plan struct {
	Seed   int64
	Ranks  int
	Rounds int
	Events []Event
}

// ParseSpec parses "kind=count,kind=count" into per-kind counts.
func ParseSpec(spec string) (map[Kind]int, error) {
	counts := make(map[Kind]int)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not kind=count", field)
		}
		var kind Kind = numKinds
		for _, s := range specNames {
			if s.name == strings.TrimSpace(name) {
				kind = s.kind
				break
			}
		}
		if kind == numKinds {
			return nil, fmt.Errorf("faults: unknown fault kind %q", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("faults: bad count %q for %s", val, kind)
		}
		if n > MaxRanks-counts[kind] {
			return nil, fmt.Errorf("faults: more than %d %s events", MaxRanks, kind)
		}
		counts[kind] += n
	}
	return counts, nil
}

// NewPlan materializes a schedule: the spec's per-kind counts are placed at
// seeded-random (rank, round, exchange) coordinates. The same (spec, seed,
// ranks, rounds) always yields the same plan. Crash events target distinct
// ranks and are capped so at least one rank survives the whole run.
func NewPlan(spec string, seed int64, ranks, rounds int) (*Plan, error) {
	if ranks < 1 || rounds < 1 {
		return nil, fmt.Errorf("faults: plan needs ≥1 rank and ≥1 round, got %d×%d", ranks, rounds)
	}
	counts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if ranks+counts[RankJoin] > MaxRanks {
		return nil, fmt.Errorf("faults: %d ranks + %d joins exceed the %d-rank ceiling", ranks, counts[RankJoin], MaxRanks)
	}
	if counts[RankCrash] > ranks-1 {
		return nil, fmt.Errorf("faults: %d rank crashes would leave no survivor among %d ranks",
			counts[RankCrash], ranks)
	}
	rng := rand.New(rand.NewSource(seed))
	exchanges := 1 + 2*rounds // scatter + per-round (read exchange, allgather)
	p := &Plan{Seed: seed, Ranks: ranks, Rounds: rounds}
	crashed := make(map[int]bool)
	joins := 0
	for _, s := range specNames {
		for i := 0; i < counts[s.kind]; i++ {
			ev := Event{Kind: s.kind}
			switch s.kind {
			case RankCrash:
				r := rng.Intn(ranks)
				for crashed[r] {
					r = rng.Intn(ranks)
				}
				crashed[r] = true
				ev.Rank, ev.Round = r, rng.Intn(rounds)
			case DeviceOOM, KernelAbort:
				ev.Rank, ev.Round = rng.Intn(ranks), rng.Intn(rounds)
			case FabricDrop, FabricCorrupt:
				ev.Exchange = 1 + rng.Intn(exchanges-1)
				ev.Times = 1 + rng.Intn(2)
			case FabricDelay:
				ev.Exchange = 1 + rng.Intn(exchanges-1)
				ev.Factor = 2 + 8*rng.Float64()
			case Straggler:
				ev.Rank, ev.Round = rng.Intn(ranks), rng.Intn(rounds)
				ev.Factor = 1.5 + 2.5*rng.Float64()
			case RankJoin:
				// Joined ranks extend the ID space past the initial count,
				// numbered in generation order so the capacity is the ID
				// ceiling.
				ev.Rank, ev.Round = ranks+joins, rng.Intn(rounds)
				joins++
			}
			p.Events = append(p.Events, ev)
		}
	}
	return p, nil
}

// Capacity is the rank ID ceiling of the plan: the initial ranks plus every
// scheduled join. Elastic runtimes size their per-rank state to it.
func (p *Plan) Capacity() int {
	if p == nil {
		return 0
	}
	n := p.Ranks
	for _, ev := range p.Events {
		if ev.Kind == RankJoin {
			n++
		}
	}
	return n
}

// Merge concatenates another plan's events onto this one (both must share
// the run shape). Either side may be nil; the result is nil only when both
// are. The dist runtime uses it to combine an elastic membership schedule
// with a random fault schedule into the single plan it consumes.
func (p *Plan) Merge(q *Plan) (*Plan, error) {
	if p == nil {
		return q, nil
	}
	if q == nil {
		return p, nil
	}
	if p.Ranks != q.Ranks || p.Rounds != q.Rounds {
		return nil, fmt.Errorf("faults: cannot merge plans of shape %d×%d and %d×%d",
			p.Ranks, p.Rounds, q.Ranks, q.Rounds)
	}
	m := &Plan{Seed: p.Seed, Ranks: p.Ranks, Rounds: p.Rounds}
	m.Events = append(append(m.Events, p.Events...), q.Events...)
	return m, nil
}

// ParseElastic materializes a membership schedule spec — comma-separated
// "join@r<round>:<count>" and "leave@r<round>:<count>" entries, e.g.
// "join@r1:2,leave@r1:1" — into a plan of RankJoin and RankCrash events for
// a run of the given initial ranks and rounds. Joins mint fresh rank IDs
// (ranks, ranks+1, …) in spec order; a leave deterministically retires the
// highest-numbered rank still live at its round — the autoscaler's
// scale-down convention — so the whole schedule is a pure function of the
// spec and the run shape. Joins at a round are applied before leaves at the
// same round, matching the runtime's round-boundary order. A schedule that
// would leave no live rank at any round is rejected.
func ParseElastic(spec string, ranks, rounds int) (*Plan, error) {
	if ranks < 1 || rounds < 1 {
		return nil, fmt.Errorf("faults: elastic schedule needs ≥1 rank and ≥1 round, got %d×%d", ranks, rounds)
	}
	if ranks > MaxRanks {
		return nil, fmt.Errorf("faults: %d ranks exceed the %d-rank ceiling", ranks, MaxRanks)
	}
	type entry struct {
		join         bool
		round, count int
	}
	var entries []entry
	capacity := ranks // ranks + Σ joins so far, held to MaxRanks before the replay sizes anything from it
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		verb, rest, ok := strings.Cut(field, "@")
		if !ok {
			return nil, fmt.Errorf("faults: elastic entry %q is not join@r<round>:<count> or leave@r<round>:<count>", field)
		}
		var e entry
		switch strings.TrimSpace(verb) {
		case "join":
			e.join = true
		case "leave":
		default:
			return nil, fmt.Errorf("faults: elastic entry %q: unknown verb %q (join|leave)", field, verb)
		}
		at, cnt, ok := strings.Cut(rest, ":")
		if !ok || !strings.HasPrefix(at, "r") {
			return nil, fmt.Errorf("faults: elastic entry %q is not %s@r<round>:<count>", field, verb)
		}
		round, err := strconv.Atoi(strings.TrimPrefix(at, "r"))
		if err != nil || round < 0 {
			return nil, fmt.Errorf("faults: elastic entry %q: bad round %q", field, at)
		}
		if round >= rounds {
			return nil, fmt.Errorf("faults: elastic entry %q targets round %d of a %d-round run", field, round, rounds)
		}
		n, err := strconv.Atoi(strings.TrimSpace(cnt))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("faults: elastic entry %q: bad count %q", field, cnt)
		}
		if e.join {
			if n > MaxRanks-capacity {
				return nil, fmt.Errorf("faults: elastic entry %q grows the run past the %d-rank ceiling", field, MaxRanks)
			}
			capacity += n
		}
		e.round, e.count = round, n
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("faults: empty elastic schedule %q", spec)
	}
	// Replay the schedule in round order (joins before leaves within a
	// round) to mint join IDs and resolve each leave to a concrete rank.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].round != entries[j].round {
			return entries[i].round < entries[j].round
		}
		return entries[i].join && !entries[j].join
	})
	p := &Plan{Ranks: ranks, Rounds: rounds}
	live := make([]bool, ranks)
	for r := range live {
		live[r] = true
	}
	for _, e := range entries {
		for i := 0; i < e.count; i++ {
			if e.join {
				p.Events = append(p.Events, Event{Kind: RankJoin, Rank: len(live), Round: e.round})
				live = append(live, true)
				continue
			}
			victim := -1
			for r := len(live) - 1; r >= 0; r-- {
				if live[r] {
					victim = r
					break
				}
			}
			alive := 0
			for _, a := range live {
				if a {
					alive++
				}
			}
			if alive <= 1 {
				return nil, fmt.Errorf("faults: elastic schedule %q leaves no live rank at round %d", spec, e.round)
			}
			live[victim] = false
			p.Events = append(p.Events, Event{Kind: RankCrash, Rank: victim, Round: e.round})
		}
	}
	return p, nil
}

// Validate checks the plan is usable for a run of the given shape: every
// targeted rank must exist within the plan's capacity (initial ranks plus
// joins), joined rank IDs must be distinct and ≥ the initial count, and a
// replay of the membership schedule (joins before crashes at each round
// boundary, the runtime's order) must keep at least one rank live at every
// round.
func (p *Plan) Validate(ranks int) error {
	if p == nil {
		return nil
	}
	if p.Ranks != ranks {
		return fmt.Errorf("faults: plan built for %d ranks, run has %d", p.Ranks, ranks)
	}
	capacity := p.Capacity()
	joined := make(map[int]bool)
	maxRound := -1
	for _, ev := range p.Events {
		if ev.Kind >= numKinds {
			return fmt.Errorf("faults: unknown event kind %d", ev.Kind)
		}
		switch ev.Kind {
		case RankCrash, DeviceOOM, KernelAbort, Straggler:
			if ev.Rank < 0 || ev.Rank >= capacity {
				return fmt.Errorf("faults: %s targets rank %d of capacity %d", ev.Kind, ev.Rank, capacity)
			}
		case RankJoin:
			if ev.Rank < ranks || ev.Rank >= capacity {
				return fmt.Errorf("faults: join mints rank %d outside (%d..%d)", ev.Rank, ranks, capacity-1)
			}
			if joined[ev.Rank] {
				return fmt.Errorf("faults: rank %d joins twice", ev.Rank)
			}
			joined[ev.Rank] = true
		}
		if ev.Round > maxRound {
			maxRound = ev.Round
		}
	}
	// Replay: the live count must never drop to zero at a round boundary.
	live := make([]bool, capacity)
	for r := 0; r < ranks; r++ {
		live[r] = true
	}
	alive := ranks
	for round := 0; round <= maxRound; round++ {
		for _, ev := range p.Events {
			if ev.Kind == RankJoin && ev.Round == round && !live[ev.Rank] {
				live[ev.Rank] = true
				alive++
			}
		}
		for _, ev := range p.Events {
			if ev.Kind == RankCrash && ev.Round == round && live[ev.Rank] {
				live[ev.Rank] = false
				alive--
			}
		}
		if alive < 1 {
			return fmt.Errorf("faults: schedule leaves no live rank at round %d", round)
		}
	}
	return nil
}

// String renders the schedule compactly ("rank-crash r2@round1; drop x2@ex3").
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return "no faults"
	}
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		switch ev.Kind {
		case FabricDrop, FabricCorrupt:
			parts[i] = fmt.Sprintf("%s x%d@ex%d", ev.Kind, ev.Times, ev.Exchange)
		case FabricDelay:
			parts[i] = fmt.Sprintf("%s %.1fx@ex%d", ev.Kind, ev.Factor, ev.Exchange)
		case Straggler:
			parts[i] = fmt.Sprintf("%s %.1fx r%d@round%d", ev.Kind, ev.Factor, ev.Rank, ev.Round)
		default:
			parts[i] = fmt.Sprintf("%s r%d@round%d", ev.Kind, ev.Rank, ev.Round)
		}
	}
	return strings.Join(parts, "; ")
}

// Injector answers runtime queries against a plan. All methods are safe on
// a nil receiver (no faults) and safe for concurrent use: queries are pure
// lookups, so answers do not depend on call order.
type Injector struct {
	plan *Plan
}

// NewInjector wraps a plan; a nil plan yields a nil (inert) injector.
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: p}
}

// CrashesAt returns the ranks scheduled to crash at the given round
// boundary, in ascending rank order.
func (in *Injector) CrashesAt(round int) []int {
	if in == nil {
		return nil
	}
	var ranks []int
	for _, ev := range in.plan.Events {
		if ev.Kind == RankCrash && ev.Round == round {
			ranks = append(ranks, ev.Rank)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// JoinsAt returns the rank IDs scheduled to join at the given round
// boundary, in ascending order. The runtime applies joins before crashes,
// so a round may both admit ranks and evict them.
func (in *Injector) JoinsAt(round int) []int {
	if in == nil {
		return nil
	}
	var ranks []int
	for _, ev := range in.plan.Events {
		if ev.Kind == RankJoin && ev.Round == round {
			ranks = append(ranks, ev.Rank)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// DeviceFault reports whether the rank's device is scheduled to fail at the
// given round (it stays failed for the rest of the run).
func (in *Injector) DeviceFault(rank, round int) bool {
	if in == nil {
		return false
	}
	for _, ev := range in.plan.Events {
		if ev.Kind == DeviceOOM && ev.Rank == rank && ev.Round <= round {
			return true
		}
	}
	return false
}

// OOMCount returns how many DeviceOOM events (across all ranks) have
// fired by the given round, sticky like DeviceFault. Budget-mode runs use
// it as memory pressure: instead of poisoning a device, each event halves
// the effective counting budget — OOM degrades into a re-planned spill
// rather than a device→host fallback.
func (in *Injector) OOMCount(round int) int {
	if in == nil {
		return 0
	}
	n := 0
	for _, ev := range in.plan.Events {
		if ev.Kind == DeviceOOM && ev.Round <= round {
			n++
		}
	}
	return n
}

// KernelAborts returns how many batch launches on the rank should abort
// with a table-full fault during the given round.
func (in *Injector) KernelAborts(rank, round int) int {
	if in == nil {
		return 0
	}
	n := 0
	for _, ev := range in.plan.Events {
		if ev.Kind == KernelAbort && ev.Rank == rank && ev.Round == round {
			n++
		}
	}
	return n
}

// ExchangeFailures returns how many consecutive attempts of the given
// exchange (by ordinal) fail, and whether any failure is a corruption
// (detected after the transfer) rather than a drop (detected by timeout).
func (in *Injector) ExchangeFailures(exchange int) (times int, corrupt bool) {
	if in == nil {
		return 0, false
	}
	for _, ev := range in.plan.Events {
		if ev.Exchange != exchange {
			continue
		}
		switch ev.Kind {
		case FabricDrop:
			times += ev.Times
		case FabricCorrupt:
			times += ev.Times
			corrupt = true
		}
	}
	return times, corrupt
}

// ExchangeDelay returns the latency-spike factor for the exchange (1 when
// none is scheduled).
func (in *Injector) ExchangeDelay(exchange int) float64 {
	if in == nil {
		return 1
	}
	factor := 1.0
	for _, ev := range in.plan.Events {
		if ev.Kind == FabricDelay && ev.Exchange == exchange {
			factor *= ev.Factor
		}
	}
	return factor
}

// StragglerFactor returns the compute slowdown of the rank in the round (1
// when none is scheduled).
func (in *Injector) StragglerFactor(rank, round int) float64 {
	if in == nil {
		return 1
	}
	factor := 1.0
	for _, ev := range in.plan.Events {
		if ev.Kind == Straggler && ev.Rank == rank && ev.Round == round {
			factor *= ev.Factor
		}
	}
	return factor
}
