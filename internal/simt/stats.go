package simt

import (
	"time"

	"mhm2sim/internal/clock"
)

// InstrClass classifies warp instructions the way the instruction-roofline
// methodology does (integer, floating point, memory by space, control,
// intrinsics).
type InstrClass int

const (
	IInt      InstrClass = iota // integer ALU
	IFP                         // floating point
	ICtrl                       // branches, loop overhead
	ILdGlobal                   // global loads
	IStGlobal                   // global stores
	ILdLocal                    // local loads (register spills, per-thread arrays)
	IStLocal                    // local stores
	IAtomic                     // global atomics (CAS etc.)
	IShfl                       // warp shuffle
	IBallot                     // ballot / vote
	IMatch                      // match_any_sync
	ISync                       // __syncwarp
	ILdShared                   // shared-memory loads
	IStShared                   // shared-memory stores
	numInstrClasses
)

var instrClassNames = [numInstrClasses]string{
	"int", "fp", "ctrl", "ld.global", "st.global", "ld.local", "st.local",
	"atomic", "shfl", "ballot", "match", "syncwarp", "ld.shared", "st.shared",
}

// String returns the PTX-flavoured class name.
func (c InstrClass) String() string {
	if c < 0 || c >= numInstrClasses {
		return "unknown"
	}
	return instrClassNames[c]
}

// NumInstrClasses is the number of instruction classes.
const NumInstrClasses = int(numInstrClasses)

// Stats aggregates everything the analytic model and the roofline need
// about one kernel (or one warp of one kernel).
type Stats struct {
	Kernel string

	// WarpInstrs counts executed warp instructions by class. ThreadInstrs
	// counts per-lane executions (warp instruction × active lanes).
	// PredicatedOff counts lane slots wasted to predication (warp
	// instruction × inactive lanes) — the gap between the solid dot and
	// the dashed non-predicated line in Figs 8–9.
	WarpInstrs    [NumInstrClasses]uint64
	ThreadInstrs  [NumInstrClasses]uint64
	PredicatedOff uint64

	// GlobalSectors counts 32-byte transactions to global memory after
	// coalescing; LocalSectors likewise for local memory (always
	// coalesced, by CUDA's local-memory interleaving). AtomicSectors
	// counts transactions from atomics.
	GlobalSectors uint64
	LocalSectors  uint64
	AtomicSectors uint64

	// Warps is the number of warps that contributed.
	Warps uint64

	// MaxSerialMemChain is the largest per-warp dependent-memory chain
	// (sector count weighted by latency class), the latency-bound term
	// of the timing model.
	MaxSerialMemChain uint64
}

// Add merges o into s (used to fold per-warp stats into kernel stats).
func (s *Stats) Add(o *Stats) {
	for i := 0; i < NumInstrClasses; i++ {
		s.WarpInstrs[i] += o.WarpInstrs[i]
		s.ThreadInstrs[i] += o.ThreadInstrs[i]
	}
	s.PredicatedOff += o.PredicatedOff
	s.GlobalSectors += o.GlobalSectors
	s.LocalSectors += o.LocalSectors
	s.AtomicSectors += o.AtomicSectors
	s.Warps += o.Warps
	s.MaxSerialMemChain = max(s.MaxSerialMemChain, o.MaxSerialMemChain)
}

// Sub takes o, an earlier reading of the same accumulation, out of s: the
// counters Add sums. MaxSerialMemChain, a maximum, stays s's.
func (s *Stats) Sub(o *Stats) {
	for i := 0; i < NumInstrClasses; i++ {
		s.WarpInstrs[i] -= o.WarpInstrs[i]
		s.ThreadInstrs[i] -= o.ThreadInstrs[i]
	}
	s.PredicatedOff -= o.PredicatedOff
	s.GlobalSectors -= o.GlobalSectors
	s.LocalSectors -= o.LocalSectors
	s.AtomicSectors -= o.AtomicSectors
	s.Warps -= o.Warps
}

// TotalWarpInstrs sums warp instructions over all classes.
func (s *Stats) TotalWarpInstrs() uint64 {
	var n uint64
	for _, v := range s.WarpInstrs {
		n += v
	}
	return n
}

// TotalThreadInstrs sums per-lane instructions over all classes.
func (s *Stats) TotalThreadInstrs() uint64 {
	var n uint64
	for _, v := range s.ThreadInstrs {
		n += v
	}
	return n
}

// MemWarpInstrs returns warp instructions that touch memory, split by space.
func (s *Stats) MemWarpInstrs() (global, local uint64) {
	global = s.WarpInstrs[ILdGlobal] + s.WarpInstrs[IStGlobal] + s.WarpInstrs[IAtomic]
	local = s.WarpInstrs[ILdLocal] + s.WarpInstrs[IStLocal]
	return global, local
}

// L1Sectors returns total L1 transactions (global + local + atomic), the
// denominator of the roofline's L1 instruction intensity.
func (s *Stats) L1Sectors() uint64 {
	return s.GlobalSectors + s.LocalSectors + s.AtomicSectors
}

// NonPredicatedRatio returns the fraction of lane slots doing real work:
// threadInstrs / (warpInstrs × 32). 1.0 means no predication.
func (s *Stats) NonPredicatedRatio() float64 {
	w := s.TotalWarpInstrs()
	if w == 0 {
		return 1
	}
	return float64(s.TotalThreadInstrs()) / float64(w*WarpSize)
}

// KernelResult is what Launch returns: counters plus the modeled time.
type KernelResult struct {
	Stats
	// Time is the modeled kernel execution time (excludes transfers,
	// includes launch overhead).
	Time clock.Device
	// Bound names the limiting term of the model: "issue", "bandwidth",
	// "latency", or "launch".
	Bound string
}

// Scaled returns the stats of f copies of this kernel's workload run as
// one launch: extensive counters scale linearly while the per-warp
// dependent chain (an intensive property of the longest single warp) stays
// fixed. This is exact for the analytic time model and is how the cluster
// model extrapolates a measured base workload to arbitrary node shares.
func (s Stats) Scaled(f float64) Stats {
	out := s
	for i := 0; i < NumInstrClasses; i++ {
		out.WarpInstrs[i] = uint64(float64(s.WarpInstrs[i]) * f)
		out.ThreadInstrs[i] = uint64(float64(s.ThreadInstrs[i]) * f)
	}
	out.PredicatedOff = uint64(float64(s.PredicatedOff) * f)
	out.GlobalSectors = uint64(float64(s.GlobalSectors) * f)
	out.LocalSectors = uint64(float64(s.LocalSectors) * f)
	out.AtomicSectors = uint64(float64(s.AtomicSectors) * f)
	out.Warps = uint64(float64(s.Warps) * f)
	if out.Warps == 0 && s.Warps > 0 {
		out.Warps = 1
	}
	return out
}

// TimeFor exposes the kernel time model: it converts counters to modeled
// execution time under the device configuration, returning the limiting
// bound ("issue", "bandwidth", "latency", or "launch").
func TimeFor(cfg DeviceConfig, s *Stats) (clock.Device, string) {
	return timeModel(cfg, s)
}

// timeModel converts counters to kernel time. Three candidate bounds are
// evaluated and the largest wins, mirroring bound-and-bottleneck analysis:
//
//	issue:     warp instructions through SMs × schedulers at the core clock
//	bandwidth: L1/DRAM sectors through the HBM pipe
//	latency:   each warp's dependent-memory chain, overlapped across the
//	           resident-warp population, serialized over occupancy rounds
//
// Small grids are latency-bound (few chains to overlap), which is exactly
// why the paper feeds the GPU its largest bin first (§4.3) and why the
// advantage shrinks at 1024 nodes when per-GPU work collapses (Fig 13).
func timeModel(cfg DeviceConfig, s *Stats) (clock.Device, string) {
	clockHz := cfg.ClockGHz * 1e9

	issueCycles := float64(s.TotalWarpInstrs()) / float64(cfg.SMs*cfg.SchedulersPerSM)
	tIssue := issueCycles / clockHz

	bytes := float64(s.L1Sectors()) * float64(cfg.SectorBytes)
	tBW := bytes / (cfg.MemBWGBps * 1e9)

	var tLat float64
	if s.Warps > 0 {
		resident := uint64(cfg.SMs * cfg.MaxWarpsPerSM)
		rounds := (s.Warps + resident - 1) / resident
		// A warp's chain: global sectors are latency-expensive, local are
		// cheap. MaxSerialMemChain already weights them.
		chainCycles := float64(s.MaxSerialMemChain)
		tLat = chainCycles * float64(rounds) / clockHz
	}

	t, bound := tIssue, "issue"
	if tBW > t {
		t, bound = tBW, "bandwidth"
	}
	if tLat > t {
		t, bound = tLat, "latency"
	}
	total := clock.Device(t*float64(time.Second)) + cfg.KernelLaunchOverhead
	if t*float64(time.Second) < float64(cfg.KernelLaunchOverhead) {
		bound = "launch"
	}
	return total, bound
}
