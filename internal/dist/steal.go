// Intra-round work stealing, modeled. The actual shard execution never
// moves — every virtual shard runs on its deal owner, which is what keeps
// contigs, scaffolds, and kernel launch lists bit-identical whatever the
// schedule — but the *round makespan* is no longer "slowest rank's whole
// queue": after the shards execute, a deterministic list-scheduling
// simulation replays the round over the per-shard modeled costs, letting
// idle ranks claim tail batches from the most-loaded rank, and the
// resulting per-rank busy times and makespan become the round's modeled
// accounting. Steal payloads travel through the fabric as a per-round
// "work steal" exchange, so the traffic shows up in StageTraffic like
// every other collective.
package dist

import (
	"sort"

	"mhm2sim/internal/clock"
)

// stealRec is one modeled steal: the thief claimed the victim's tail batch
// (one virtual shard) and its payload bytes crossed the fabric.
type stealRec struct {
	shard, victim, thief int
	bytes                int64
}

// stealOutcome is the round's scheduling result under the steal protocol.
type stealOutcome struct {
	// busy is each rank's modeled busy time for the round after stealing
	// (indexed by rank ID up to capacity); makespan its maximum finish
	// time. noStealMakespan is the same round scheduled without stealing —
	// always ≥ makespan — computed in the same pass so the report can show
	// the win without a second run.
	busy            []clock.Machine
	makespan        clock.Machine
	noStealMakespan clock.Machine
	steals          []stealRec
}

// stealSchedule replays one round's batch queues deterministically. Each
// live rank owns a FIFO queue of its dealt shards in ascending-cost order
// (ties by shard ID); cost[s] is shard s's modeled unscaled busy time and
// factor[r] the rank's straggler slowdown for the round. Ranks consume
// their own queue head-first; a rank whose queue drains picks the victim
// with the latest projected completion (busy-until plus its remaining
// scaled queue; ties to the lowest rank) and claims the victim's tail
// batch — but only when it would finish that batch strictly before the
// victim would finish its whole queue, so a slow thief never inflates the
// makespan: the stolen makespan is always ≤ the no-steal one. The whole
// simulation is a pure function of (deal, cost, factor), independent of
// goroutine scheduling — determinism by construction.
func stealSchedule(deal *shardDeal, cost []clock.Machine, bytes []int64,
	factor []float64, capacity int) stealOutcome {
	live := deal.live
	out := stealOutcome{busy: make([]clock.Machine, capacity)}

	// Per-rank queues ordered by ascending cost (ties by shard ID, so the
	// order is canonical): the owner consumes its cheap batches head-first
	// while the expensive tail is what thieves claim. This matters most
	// when the victim is the straggler — a big batch left at the head
	// would run at the straggler's factor and bound the whole makespan.
	// Zero-cost shards (empty this round) never enter a queue.
	queue := make(map[int][]int, len(live))
	for s := 0; s < deal.shards; s++ {
		if cost[s] <= 0 {
			continue
		}
		r := deal.rankOf(s)
		queue[r] = append(queue[r], s)
	}
	for _, q := range queue {
		sort.SliceStable(q, func(i, j int) bool { return cost[q[i]] < cost[q[j]] })
	}
	scaled := func(s, r int) clock.Machine {
		if f := factor[r]; f != 1 {
			return clock.Machine(float64(cost[s]) * f)
		}
		return cost[s]
	}

	for _, r := range live {
		var total clock.Machine
		for _, s := range queue[r] {
			total += scaled(s, r)
		}
		out.busy[r] = total
		if total > out.noStealMakespan {
			out.noStealMakespan = total
		}
	}
	if len(live) < 2 {
		out.makespan = out.noStealMakespan
		return out
	}

	// Steal simulation: head/tail cursors into each queue, a busy-until
	// clock per rank, and a done flag for ranks with no beneficial steal
	// left (queues only shrink, so "no beneficial steal" is permanent).
	head := make(map[int]int, len(live))
	tail := make(map[int]int, len(live))
	busyUntil := make(map[int]clock.Machine, len(live))
	done := make(map[int]bool, len(live))
	for _, r := range live {
		tail[r] = len(queue[r])
		out.busy[r] = 0
	}
	completion := func(r int) clock.Machine {
		c := busyUntil[r]
		for i := head[r]; i < tail[r]; i++ {
			c += scaled(queue[r][i], r)
		}
		return c
	}
	for {
		// The next actor is the rank free earliest (ties to the lowest
		// rank ID) — the deterministic stand-in for wall-clock order.
		actor := -1
		for _, r := range live {
			if done[r] {
				continue
			}
			if actor == -1 || busyUntil[r] < busyUntil[actor] {
				actor = r
			}
		}
		if actor == -1 {
			break
		}
		if head[actor] < tail[actor] {
			s := queue[actor][head[actor]]
			head[actor]++
			d := scaled(s, actor)
			busyUntil[actor] += d
			out.busy[actor] += d
			continue
		}
		// Idle: pick the most-loaded victim by projected completion.
		victim := -1
		var victimDone clock.Machine
		for _, v := range live {
			if v == actor || head[v] >= tail[v] {
				continue
			}
			if c := completion(v); victim == -1 || c > victimDone {
				victim, victimDone = v, c
			}
		}
		if victim == -1 {
			done[actor] = true
			continue
		}
		s := queue[victim][tail[victim]-1]
		d := scaled(s, actor)
		if busyUntil[actor]+d >= victimDone {
			// Stealing would not beat the victim finishing its own queue
			// (the thief may itself be a straggler); later opportunities
			// are only worse, so the rank is done for the round.
			done[actor] = true
			continue
		}
		tail[victim]--
		busyUntil[actor] += d
		out.busy[actor] += d
		out.steals = append(out.steals, stealRec{shard: s, victim: victim, thief: actor, bytes: bytes[s]})
	}
	for _, r := range live {
		if busyUntil[r] > out.makespan {
			out.makespan = busyUntil[r]
		}
	}
	return out
}

// stealMatrix folds the round's steals into a fabric exchange matrix:
// matrix[victim][thief] carries the stolen batches' payload bytes (the
// shard's contigs plus their candidate reads — what the thief needs to run
// the batch).
func stealMatrix(steals []stealRec, capacity int) [][]int64 {
	matrix := newMatrix(capacity)
	for _, st := range steals {
		matrix[st.victim][st.thief] += st.bytes
	}
	return matrix
}
