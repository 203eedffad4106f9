// Package dist is a rank-based distributed runtime for the assembly
// pipeline: it shards contigs across N simulated ranks — each owning one
// simt device — routes aligned reads to their contig-owning rank through a
// modeled communication fabric, runs per-rank GPU local assembly
// concurrently with real goroutines, and gathers everything back into one
// pipeline.Result that is bit-identical to the single-rank run.
//
// The comm fabric plays the role UPC++'s runtime plays in MetaHipMer2: an
// all-to-all exchange is modeled with an α/β (latency/bandwidth) cost per
// rank and per-rank traffic counters, the same way internal/simt models
// PCIe transfers analytically while the data itself moves through shared
// memory. The dominant exchanges of the real assembler — routing aligned
// reads to contig owners before local assembly (MHM2's aggregating stores)
// and allgathering extended contigs for the next round's replicated
// alignment index — are both represented.
package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/faults"
)

// ErrUnrecoverable marks a fault the runtime could not recover from: an
// exchange that kept failing after the retry budget, or a crash schedule
// that leaves no surviving rank. Callers match it with errors.Is.
var ErrUnrecoverable = errors.New("dist: unrecoverable fault")

// FabricConfig models the inter-rank network: each aggregated message pays
// a fixed latency α, and each rank's injection/ejection port moves bytes at
// β GB/s. Messages between a rank and itself stay in shared memory and cost
// nothing (they are still counted, as MHM2 counts local aggregating-store
// hits).
type FabricConfig struct {
	// LatencyPerMsg is α: the per-message software+wire latency.
	LatencyPerMsg clock.Fabric
	// BandwidthGBps is β: per-rank injection bandwidth in GB/s.
	BandwidthGBps float64
	// AggBufferBytes is the aggregating-store buffer size: bytes destined
	// to one peer are shipped in ceil(bytes/AggBufferBytes) messages,
	// mirroring MHM2's buffered RPCs. 0 = DefaultAggBufferBytes.
	AggBufferBytes int64
	// ExchangeTimeout is the modeled time a dropped exchange attempt costs
	// before the collective declares it failed and retries. 0 =
	// DefaultExchangeTimeout.
	ExchangeTimeout clock.Fabric
	// MaxRetries bounds retry attempts per exchange; an exchange still
	// failing after MaxRetries retries surfaces ErrUnrecoverable. 0 =
	// DefaultMaxRetries.
	MaxRetries int
	// RetryBackoff is the base of the bounded exponential backoff between
	// retry attempts (doubled per attempt, capped at
	// RetryBackoff << maxBackoffShift). 0 = DefaultRetryBackoff.
	RetryBackoff clock.Fabric
}

// Default fabric parameters, loosely a Summit-class EDR InfiniBand port:
// ~2 µs end-to-end message latency and 12.5 GB/s (100 Gbit/s) per rank.
const (
	DefaultLatencyPerMsg   = clock.Fabric(2 * time.Microsecond)
	DefaultBandwidthGBps   = 12.5
	DefaultAggBufferBytes  = 1 << 20
	DefaultExchangeTimeout = clock.Fabric(10 * time.Millisecond)
	DefaultMaxRetries      = 3
	DefaultRetryBackoff    = clock.Fabric(time.Millisecond)

	// maxBackoffShift caps the exponential backoff at base << shift.
	maxBackoffShift = 6
)

// DefaultFabricConfig returns the Summit-like fabric model.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{}.withDefaults()
}

// withDefaults fills zero-valued fields one by one, so a partially
// specified config (say, only BandwidthGBps overridden) inherits defaults
// for the rest instead of failing validation or being silently replaced
// wholesale.
func (c FabricConfig) withDefaults() FabricConfig {
	if c.LatencyPerMsg == 0 {
		c.LatencyPerMsg = DefaultLatencyPerMsg
	}
	if c.BandwidthGBps == 0 {
		c.BandwidthGBps = DefaultBandwidthGBps
	}
	return c.withOperationalDefaults()
}

// withOperationalDefaults fills the fields a fabric cannot run without
// (aggregation buffer, timeout, retry budget, backoff), leaving the α/β
// model as given.
func (c FabricConfig) withOperationalDefaults() FabricConfig {
	if c.AggBufferBytes == 0 {
		c.AggBufferBytes = DefaultAggBufferBytes
	}
	if c.ExchangeTimeout == 0 {
		c.ExchangeTimeout = DefaultExchangeTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	return c
}

// Validate checks fabric parameters.
func (c *FabricConfig) Validate() error {
	if c.LatencyPerMsg < 0 {
		return fmt.Errorf("dist: negative fabric latency %v", c.LatencyPerMsg)
	}
	if c.BandwidthGBps <= 0 {
		return fmt.Errorf("dist: fabric bandwidth %g GB/s must be positive", c.BandwidthGBps)
	}
	if c.AggBufferBytes < 0 {
		return fmt.Errorf("dist: negative aggregation buffer %d", c.AggBufferBytes)
	}
	if c.ExchangeTimeout < 0 {
		return fmt.Errorf("dist: negative exchange timeout %v", c.ExchangeTimeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("dist: negative retry budget %d", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("dist: negative retry backoff %v", c.RetryBackoff)
	}
	return nil
}

// StageTraffic is the per-rank accounting of one all-to-all exchange.
type StageTraffic struct {
	Stage string
	// Sent/Recv are network bytes per rank (excluding rank-local traffic);
	// Msgs counts aggregated messages injected per rank.
	Sent, Recv []int64
	Msgs       []int64
	// LocalBytes counts rank-local (src == dst) bytes, which never touch
	// the wire.
	LocalBytes []int64
	// PerRank is each rank's modeled time in the exchange:
	// max(inject, eject) since sends and receives overlap on full-duplex
	// ports. Time is the exchange wall time — the slowest rank, since an
	// all-to-all is a collective barrier.
	PerRank []clock.Fabric
	Time    clock.Fabric
	// Retries counts failed attempts of this exchange (injected drops or
	// corruptions) before the successful one; RetryTime is the modeled time
	// those attempts and their backoff cost, already folded into Time.
	Retries   int
	RetryTime clock.Fabric
}

// TotalBytes sums the network bytes of the exchange (each byte counted
// once, on the send side).
func (st *StageTraffic) TotalBytes() int64 {
	var n int64
	for _, b := range st.Sent {
		n += b
	}
	return n
}

// TotalMsgs sums the aggregated messages of the exchange.
func (st *StageTraffic) TotalMsgs() int64 {
	var n int64
	for _, m := range st.Msgs {
		n += m
	}
	return n
}

// TotalLocalBytes sums the rank-local (src == dst) bytes of the exchange —
// data that moved through shared memory, never the wire.
func (st *StageTraffic) TotalLocalBytes() int64 {
	var n int64
	for _, b := range st.LocalBytes {
		n += b
	}
	return n
}

// Locality is the fraction of the exchange's bytes that stayed rank-local,
// in [0,1]. A stage that moved nothing at all reports 1 (fully local).
func (st *StageTraffic) Locality() float64 {
	local, remote := st.TotalLocalBytes(), st.TotalBytes()
	if local+remote == 0 {
		return 1
	}
	return float64(local) / float64(local+remote)
}

// Fabric is the simulated interconnect between ranks: it executes modeled
// all-to-all exchanges and accumulates per-stage, per-rank traffic and
// time. Who is a member is the Membership's knowledge, not the fabric's: a
// failed attempt is charged to the ranks the membership reports alive.
// Exchange is safe for concurrent use; membership changes must not overlap
// an exchange (the runtime makes both from the round's own goroutine).
type Fabric struct {
	cfg FabricConfig
	mem *Membership
	n   int
	inj *faults.Injector

	mu        sync.Mutex
	stages    []*StageTraffic
	failedObs []int // failed exchange attempts each rank observed while alive
	retries   int
	retryTime clock.Fabric
}

// NewFabric creates a standalone fabric connecting n ranks, all members for
// its whole life. Zero-valued operational fields take their defaults;
// latency and bandwidth are validated as given, since a zero bandwidth is a
// configuration error, not a request for the default.
func NewFabric(n int, cfg FabricConfig) (*Fabric, error) {
	mem, err := NewMembership(n, n, n)
	if err != nil {
		return nil, err
	}
	return newFabric(mem, cfg)
}

// newFabric wires a fabric over every slot of mem; slots that are absent or
// gone observe no collective failures and accrue no retry penalty.
func newFabric(mem *Membership, cfg FabricConfig) (*Fabric, error) {
	cfg = cfg.withOperationalDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := mem.Capacity()
	return &Fabric{cfg: cfg, mem: mem, n: n, failedObs: make([]int, n)}, nil
}

// UseInjector attaches a fault injector; exchanges from then on consult it
// by ordinal for drops, corruptions, and latency spikes. A nil injector is
// inert.
func (f *Fabric) UseInjector(in *faults.Injector) { f.inj = in }

// FailedAttempts counts the failed collective attempts rank r observed while
// it was a member (an all-to-all failure is seen by every live participant).
func (f *Fabric) FailedAttempts(r int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failedObs[r]
}

// Retries returns the total failed exchange attempts recovered by retry and
// the modeled time they cost.
func (f *Fabric) Retries() (int, clock.Fabric) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retries, f.retryTime
}

// msgsFor is the number of aggregated messages needed for b bytes.
func (f *Fabric) msgsFor(b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (b + f.cfg.AggBufferBytes - 1) / f.cfg.AggBufferBytes
}

// Exchange models one all-to-all: matrix[src][dst] is the bytes rank src
// sends to rank dst. It records and returns the stage's traffic. The model
// per rank r is
//
//	inject(r) = Σ_{d≠r} msgs(r,d)·α + sent(r)/β
//	eject(r)  = Σ_{s≠r} msgs(s,r)·α + recv(r)/β
//	time(r)   = max(inject, eject)    (full-duplex ports)
//
// and the exchange completes when the slowest rank does.
//
// With an injector attached, the exchange's 0-based ordinal (its position
// in the stage log) selects injected faults: a latency spike multiplies the
// attempt time; a drop costs the timeout, a corruption the full transfer
// (detected at ejection), and each failed attempt adds a bounded
// exponential backoff before the retry. An exchange still failing after
// MaxRetries retries returns ErrUnrecoverable.
func (f *Fabric) Exchange(stage string, matrix [][]int64) (*StageTraffic, error) {
	if len(matrix) != f.n {
		return nil, fmt.Errorf("dist: exchange matrix has %d rows for %d ranks", len(matrix), f.n)
	}
	st := &StageTraffic{
		Stage:      stage,
		Sent:       make([]int64, f.n),
		Recv:       make([]int64, f.n),
		Msgs:       make([]int64, f.n),
		LocalBytes: make([]int64, f.n),
		PerRank:    make([]clock.Fabric, f.n),
	}
	inMsgs := make([]int64, f.n) // messages ejected at each rank
	for src := range matrix {
		if len(matrix[src]) != f.n {
			return nil, fmt.Errorf("dist: exchange row %d has %d columns for %d ranks", src, len(matrix[src]), f.n)
		}
		for dst, b := range matrix[src] {
			if b < 0 {
				return nil, fmt.Errorf("dist: negative traffic %d from rank %d to %d", b, src, dst)
			}
			if src == dst {
				st.LocalBytes[src] += b
				continue
			}
			m := f.msgsFor(b)
			st.Sent[src] += b
			st.Recv[dst] += b
			st.Msgs[src] += m
			inMsgs[dst] += m
		}
	}
	bytesPerSec := f.cfg.BandwidthGBps * 1e9
	for r := 0; r < f.n; r++ {
		inject := clock.Fabric(float64(st.Msgs[r]))*f.cfg.LatencyPerMsg +
			clock.Fabric(float64(st.Sent[r])/bytesPerSec*float64(time.Second))
		eject := clock.Fabric(float64(inMsgs[r]))*f.cfg.LatencyPerMsg +
			clock.Fabric(float64(st.Recv[r])/bytesPerSec*float64(time.Second))
		st.PerRank[r] = max(inject, eject)
		st.Time = max(st.Time, st.PerRank[r])
	}

	f.mu.Lock()
	ordinal := len(f.stages)
	f.mu.Unlock()
	if factor := f.inj.ExchangeDelay(ordinal); factor != 1 {
		for r := range st.PerRank {
			st.PerRank[r] = clock.Fabric(float64(st.PerRank[r]) * factor)
		}
		st.Time = clock.Fabric(float64(st.Time) * factor)
	}
	if fails, corrupt := f.inj.ExchangeFailures(ordinal); fails > 0 {
		if fails > f.cfg.MaxRetries {
			return nil, fmt.Errorf("dist: exchange %d (%s) still failing after %d of %d injected failures: %w",
				ordinal, stage, f.cfg.MaxRetries, fails, ErrUnrecoverable)
		}
		var penalty clock.Fabric
		backoff := f.cfg.RetryBackoff
		maxBackoff := f.cfg.RetryBackoff << maxBackoffShift
		for a := 0; a < fails; a++ {
			// A drop is detected by the collective timeout; a corruption
			// only at ejection, after paying the full transfer.
			cost := f.cfg.ExchangeTimeout
			if corrupt {
				cost = st.Time
			}
			penalty += cost + backoff
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		st.Retries = fails
		st.RetryTime = penalty
		st.Time += penalty
		f.mu.Lock()
		for r := range st.PerRank {
			if f.mem.Alive(r) {
				st.PerRank[r] += penalty
				f.failedObs[r] += fails
			}
		}
		f.retries += fails
		f.retryTime += penalty
		f.mu.Unlock()
	}

	f.mu.Lock()
	f.stages = append(f.stages, st)
	f.mu.Unlock()
	return st, nil
}

// Stages returns a snapshot of every exchange recorded so far, in order.
func (f *Fabric) Stages() []StageTraffic {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]StageTraffic, len(f.stages))
	for i, st := range f.stages {
		out[i] = *st
	}
	return out
}

// TotalTime sums the modeled wall time of every recorded exchange (the
// exchanges are collectives separated by compute, so they serialize).
func (f *Fabric) TotalTime() clock.Fabric {
	f.mu.Lock()
	defer f.mu.Unlock()
	var t clock.Fabric
	for _, st := range f.stages {
		t += st.Time
	}
	return t
}

// RankTotals returns, for one rank, its accumulated comm time, network
// bytes sent and received, and messages injected across every exchange.
func (f *Fabric) RankTotals(r int) (comm clock.Fabric, sent, recv, msgs int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.stages {
		comm += st.PerRank[r]
		sent += st.Sent[r]
		recv += st.Recv[r]
		msgs += st.Msgs[r]
	}
	return comm, sent, recv, msgs
}
