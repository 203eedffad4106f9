// Epoch-versioned membership: the elastic replacement for the static
// alive-bitmap ownership model. A Membership tracks every rank slot the run
// can ever hold (the initial ranks plus every scheduled join), moves slots
// through absent → live → gone, and bumps an epoch on every change. The
// shard deal is computed once per epoch and cached, so ownership queries
// between membership changes are pointer loads, and the per-epoch live-set
// history feeds the report's elasticity section. It is the run's only record
// of who is alive: the shard deal, the fabric's failure accounting and the
// report all read this one value.
package dist

import "fmt"

// rankState is one rank slot's lifecycle position.
type rankState uint8

const (
	// rankAbsent: a capacity slot reserved for a scheduled join that has
	// not fired yet. Absent ranks hold no shards and observe no traffic.
	rankAbsent rankState = iota
	// rankLive: a member of the collective, owning shards.
	rankLive
	// rankGone: evicted by a crash or a scale-down leave. Gone slots are
	// never reused — rank IDs are stable for the whole run.
	rankGone
)

// Membership is the epoch-versioned rank set of one distributed run. Every
// join or eviction bumps the epoch and re-deals the virtual shards over the
// new live set; between changes the deal is served from the epoch's cache.
// It is not safe for concurrent mutation — the runtime only changes
// membership at round boundaries, outside the concurrent assembly phase.
type Membership struct {
	shards int
	state  []rankState
	// joinRound / goneRound are the 0-based rounds a rank joined or left at
	// (-1 for initial members / still-live ranks).
	joinRound []int
	goneRound []int

	epoch int
	live  []int      // ascending live rank IDs, rebuilt per epoch
	deal  *shardDeal // cached deal of the current epoch
	// epochLive is the live-rank count at each epoch since the run started
	// (epochLive[0] is the initial count) — the report's elasticity trace.
	epochLive []int
}

// NewMembership builds the epoch-0 membership: ranks 0..initial-1 live,
// initial..capacity-1 reserved for scheduled joins.
func NewMembership(initial, capacity, shards int) (*Membership, error) {
	if initial < 1 {
		return nil, fmt.Errorf("dist: membership needs ≥ 1 initial rank, got %d", initial)
	}
	if capacity < initial {
		return nil, fmt.Errorf("dist: membership capacity %d below initial %d", capacity, initial)
	}
	if shards < 1 {
		return nil, fmt.Errorf("dist: membership needs ≥ 1 virtual shard, got %d", shards)
	}
	m := &Membership{
		shards:    shards,
		state:     make([]rankState, capacity),
		joinRound: make([]int, capacity),
		goneRound: make([]int, capacity),
	}
	for r := 0; r < capacity; r++ {
		m.joinRound[r], m.goneRound[r] = -1, -1
		if r < initial {
			m.state[r] = rankLive
		}
	}
	m.redeal()
	return m, nil
}

// redeal rebuilds the epoch's live set and cached shard deal, and extends
// the per-epoch history. Called on construction and after every change.
func (m *Membership) redeal() {
	live := make([]int, 0, len(m.state))
	for r, st := range m.state {
		if st == rankLive {
			live = append(live, r)
		}
	}
	m.live = live
	m.deal = newShardDeal(m.shards, live)
	m.epochLive = append(m.epochLive, len(live))
}

// Capacity is the rank ID ceiling: initial ranks plus every reservable join
// slot. Per-rank runtime state is sized to it.
func (m *Membership) Capacity() int { return len(m.state) }

// Epoch is the current membership version, starting at 0 and bumped by
// every join or eviction.
func (m *Membership) Epoch() int { return m.epoch }

// Alive reports whether the rank is a current member. Out-of-range ranks
// (never part of the run) are not alive.
func (m *Membership) Alive(r int) bool {
	return r >= 0 && r < len(m.state) && m.state[r] == rankLive
}

// LiveCount is the number of live ranks in the current epoch.
func (m *Membership) LiveCount() int { return len(m.live) }

// Deal returns the current epoch's shard→rank mapping. The deal is built
// once per epoch and cached, so calls between membership changes are free
// — the re-deal cost is paid where the change happens, not on every
// ownership query.
func (m *Membership) Deal() *shardDeal { return m.deal }

// Join admits a reserved rank slot at the given round: absent → live, epoch
// bump, incremental re-deal. The joiner receives whole virtual shards from
// the new deal exactly as crash survivors do — the deal stays the same
// deterministic round-robin over the live set, only the set changed.
func (m *Membership) Join(r, round int) error {
	if r < 0 || r >= len(m.state) {
		return fmt.Errorf("dist: join of rank %d outside capacity %d", r, len(m.state))
	}
	switch m.state[r] {
	case rankLive:
		return fmt.Errorf("dist: rank %d is already a member", r)
	case rankGone:
		return fmt.Errorf("dist: evicted rank %d cannot rejoin (IDs are never reused)", r)
	}
	m.state[r] = rankLive
	m.joinRound[r] = round
	m.epoch++
	m.redeal()
	return nil
}

// Evict removes a live rank at the given round: live → gone, epoch bump,
// incremental re-deal of its shards over the survivors. Evicting the last
// live rank is an error — the caller surfaces it as ErrUnrecoverable.
func (m *Membership) Evict(r, round int) error {
	if !m.Alive(r) {
		return fmt.Errorf("dist: eviction of non-member rank %d", r)
	}
	if len(m.live) == 1 {
		return fmt.Errorf("dist: eviction of rank %d leaves no live rank", r)
	}
	m.state[r] = rankGone
	m.goneRound[r] = round
	m.epoch++
	m.redeal()
	return nil
}

// JoinedRound is the 0-based round the rank joined at (-1 for initial
// members and never-admitted slots).
func (m *Membership) JoinedRound(r int) int {
	if r < 0 || r >= len(m.joinRound) {
		return -1
	}
	return m.joinRound[r]
}

// EvictedRound is the 0-based round the rank was evicted at (-1 while it is
// live or still absent).
func (m *Membership) EvictedRound(r int) int {
	if r < 0 || r >= len(m.goneRound) {
		return -1
	}
	return m.goneRound[r]
}

// EpochLiveCounts is the live-rank count at every epoch since the run
// started, index 0 being the initial membership.
func (m *Membership) EpochLiveCounts() []int {
	return append([]int(nil), m.epochLive...)
}
