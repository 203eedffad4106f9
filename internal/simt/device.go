// Package simt is a functional + analytic simulator of a CUDA-class GPU,
// built so the paper's warp-level local-assembly kernels can be implemented,
// verified, and performance-analyzed in pure Go (DESIGN.md §2).
//
// The functional half executes kernels written in warp-synchronous style:
// a kernel is a Go function invoked once per warp, operating on 32-lane
// vectors under explicit active-lane masks, with the warp intrinsics the
// paper relies on (shuffle broadcast, ballot, match_any, atomic CAS).
// Because lanes of a warp are stepped deterministically, a kernel's output
// is bit-reproducible and can be compared against the CPU reference.
//
// The analytic half counts what NSight would count on real hardware — warp
// instructions by class, per-lane (thread) instructions, predicated-off
// lane slots, and memory transactions derived from a 32-byte-sector
// coalescing analysis — and converts them to kernel time with a
// latency/bandwidth/issue-rate model parameterized for a V100. Those are
// exactly the observables behind the paper's instruction-roofline analysis
// (Figs 8–10) and kernel timings.
package simt

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"mhm2sim/internal/clock"
)

// WarpSize is the number of lanes per warp, as on all CUDA hardware.
const WarpSize = 32

// Ptr is a device global-memory address (byte offset into the arena).
type Ptr uint64

// DeviceConfig describes the modeled GPU hardware.
type DeviceConfig struct {
	Name            string
	SMs             int     // streaming multiprocessors
	SchedulersPerSM int     // warp schedulers per SM (issue slots per cycle)
	MaxWarpsPerSM   int     // resident-warp capacity per SM
	ClockGHz        float64 // core clock
	GlobalMemBytes  int64   // device memory capacity (logical limit)
	MemBWGBps       float64 // HBM bandwidth, GB/s
	SectorBytes     int     // memory transaction granularity
	GlobalLatency   int     // cycles for a global access round-trip
	LocalLatency    int     // cycles for a local (L1-resident) access
	// MemParallelism is the memory-level parallelism per warp: how many
	// outstanding memory requests the scoreboard overlaps, which divides
	// the effective per-access latency on the dependent chain.
	MemParallelism int
	// KernelLaunchOverhead is the modeled device time of one kernel launch.
	KernelLaunchOverhead clock.Device
	// PCIeGBps is the host<->device copy bandwidth, GB/s.
	PCIeGBps float64
}

// V100 returns the configuration of one NVIDIA V100-SXM2-16GB, the GPU in
// both Summit nodes and the Cori GPU partition used by the paper. The
// theoretical warp-instruction peak, SMs × schedulers × clock =
// 80·4·1.53 ≈ 489.6 warp GIPS, matches the roofline ceiling in Figs 8–9.
func V100() DeviceConfig {
	return DeviceConfig{
		Name:                 "V100-SXM2-16GB",
		SMs:                  80,
		SchedulersPerSM:      4,
		MaxWarpsPerSM:        64,
		ClockGHz:             1.53,
		GlobalMemBytes:       16 << 30,
		MemBWGBps:            900,
		SectorBytes:          32,
		GlobalLatency:        440,
		LocalLatency:         28,
		MemParallelism:       8,
		KernelLaunchOverhead: clock.Device(10 * time.Microsecond),
		PCIeGBps:             12,
	}
}

// PeakWarpGIPS is the theoretical warp-instruction issue peak in billions
// of warp instructions per second.
func (c DeviceConfig) PeakWarpGIPS() float64 {
	return float64(c.SMs) * float64(c.SchedulersPerSM) * c.ClockGHz
}

// Device is one simulated GPU: a global-memory arena plus transfer
// accounting. Kernels run on it via Launch.
//
// Allocation (Malloc/FreeAll) and the copy engines
// (MemcpyHtoD/MemcpyDtoH, streams) are safe for concurrent use, so a
// pipelined driver may keep several batches in flight. Kernel memory
// operations are deliberately lock-free; callers that overlap kernel
// execution with allocation must Prealloc the arena first so the backing
// store never reallocates mid-flight.
type Device struct {
	Cfg DeviceConfig

	mu        sync.Mutex
	mem       []byte
	heapOff   Ptr
	highWater Ptr    // largest heap extent ever reached
	host      []byte // pinned-host staging buffer (HostStaging), mem's host twin

	// Lifetime host<->device byte totals over every copy, direct or on a
	// Stream, never reset — the per-device PCIe odometer a multi-rank
	// runtime reads for its per-rank traffic report.
	totalH2D int64
	totalD2H int64

	// Persistent warp worker pool (see launch.go).
	poolOnce sync.Once
	pool     chan warpJob
	poolMu   sync.RWMutex // launches on the pool read-lock it, Close write-locks
	closed   bool

	// Launch states not in use (guarded by mu), reused so that steady-state
	// launches allocate nothing. A sync.Pool misses when the goroutine changed P.
	lsFree []*launchState

	// fault, once injected, fails every subsequent Launch — the modeled
	// equivalent of a device falling off the bus or exhausting memory
	// mid-run. Guarded by mu: the pipelined driver launches from two side
	// goroutines.
	fault error
}

// InjectFault marks the device as lost: every subsequent Launch returns the
// given error (ErrDeviceLost when nil).
func (d *Device) InjectFault(err error) {
	if err == nil {
		err = ErrDeviceLost
	}
	d.mu.Lock()
	d.fault = err
	d.mu.Unlock()
}

// Lost reports whether a fault has been injected; nothing clears one.
func (d *Device) Lost() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fault != nil
}

// NewDevice creates a device with an empty arena.
func NewDevice(cfg DeviceConfig) *Device {
	return &Device{Cfg: cfg}
}

// ensureLocked grows the backing arena to cover [0, end). Growth is
// amortized (doubling) and jumps straight to the high-water mark when one
// was recorded, so a Prealloc'ed or previously-seen footprint costs at most
// one copy-grow instead of the repeated 1.25× grows of the naive policy.
// Callers hold d.mu.
func (d *Device) ensureLocked(end Ptr) {
	d.highWater = max(d.highWater, end)
	need := int64(end) + 1024 // slack for 8-byte gather over-reads
	if need <= int64(len(d.mem)) {
		return
	}
	target := max(2*int64(len(d.mem)), int64(d.highWater)+1024)
	target = max(min(target, d.Cfg.GlobalMemBytes+1024), need)
	grown := make([]byte, target)
	copy(grown, d.mem)
	d.mem = grown
}

// Prealloc grows the backing arena once to hold n bytes. Drivers call it
// with their planned high-water footprint before overlapping kernel
// execution with allocation: afterwards a Malloc within that footprint
// never reallocates the arena, so in-flight kernels and copies
// stay valid.
func (d *Device) Prealloc(n int64) error {
	if n < 0 || n > d.Cfg.GlobalMemBytes {
		return fmt.Errorf("simt: prealloc of %d bytes outside device capacity %d", n, d.Cfg.GlobalMemBytes)
	}
	d.mu.Lock()
	d.ensureLocked(Ptr(n))
	d.mu.Unlock()
	return nil
}

// Malloc bump-allocates n bytes of device memory, 64-byte aligned, growing
// the backing arena as needed. It fails when the logical device capacity
// would be exceeded — the condition the paper's batch planner exists to
// avoid (§3.2). Safe for concurrent use.
func (d *Device) Malloc(n int64) (Ptr, error) {
	if n < 0 {
		return 0, fmt.Errorf("simt: negative allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	aligned := (d.heapOff + 63) &^ 63
	end := aligned + Ptr(n)
	if int64(end) > d.Cfg.GlobalMemBytes {
		return 0, fmt.Errorf("simt: out of device memory: want %d bytes at offset %d, capacity %d",
			n, aligned, d.Cfg.GlobalMemBytes)
	}
	d.ensureLocked(end)
	d.heapOff = end
	return aligned, nil
}

// FreeAll resets the allocator (a bump allocator has no partial free; the
// local-assembly driver reuses one big allocation exactly as the CUDA code
// does). The backing arena is kept, so re-running a same-sized workload
// never pays the copy-grow again.
func (d *Device) FreeAll() {
	d.mu.Lock()
	d.heapOff = 0
	d.mu.Unlock()
}

// HostStaging returns the device's pinned-host staging buffer — the host
// twin of its arena, in the manner of cudaHostAlloc — at n bytes, grown
// only when n exceeds every earlier request; its contents are unspecified.
// It is kept across FreeAll, dropped by Close, and, like the arena, serves
// one driver run at a time.
func (d *Device) HostStaging(n int64) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int64(cap(d.host)) < n {
		d.host = make([]byte, n)
	}
	return d.host[:n]
}

// InUse returns the bytes currently allocated.
func (d *Device) InUse() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.heapOff)
}

// MemcpyHtoD copies host bytes to device memory and adds them to the PCIe
// odometer. The lock orders copies against arena growth; element ranges of
// concurrent copies and kernels are disjoint by construction (each batch
// owns its slab).
func (d *Device) MemcpyHtoD(dst Ptr, src []byte) {
	d.mu.Lock()
	copy(d.mem[dst:int(dst)+len(src)], src)
	d.totalH2D += int64(len(src))
	d.mu.Unlock()
}

// MemcpyDtoH copies device bytes back to the host, mirroring MemcpyHtoD.
func (d *Device) MemcpyDtoH(dst []byte, src Ptr) {
	d.mu.Lock()
	copy(dst, d.mem[src:int(src)+len(dst)])
	d.totalD2H += int64(len(dst))
	d.mu.Unlock()
}

// CumTraffic returns the device's lifetime host<->device byte totals,
// including traffic issued on Streams. It never resets — callers diff
// successive readings for interval accounting.
func (d *Device) CumTraffic() (h2d, d2h int64) {
	d.mu.Lock()
	h2d, d2h = d.totalH2D, d.totalD2H
	d.mu.Unlock()
	return h2d, d2h
}

// TransferTime converts a transfer size to PCIe copy time.
func (d *Device) TransferTime(bytes int64) clock.Device {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / (d.Cfg.PCIeGBps * 1e9)
	return clock.Device(sec * float64(time.Second))
}

// Host-side (uncounted) accessors, used to stage inputs and read results.
// Kernel code must go through Warp memory operations instead, so the
// transaction counters see every device access.

func (d *Device) WriteBytes(p Ptr, b []byte)    { copy(d.mem[p:int(p)+len(b)], b) }
func (d *Device) ReadBytes(p Ptr, n int) []byte { return append([]byte(nil), d.mem[p:int(p)+n]...) }
func (d *Device) WriteU32(p Ptr, v uint32)      { binary.LittleEndian.PutUint32(d.mem[p:], v) }
func (d *Device) ReadU32(p Ptr) uint32          { return binary.LittleEndian.Uint32(d.mem[p:]) }
func (d *Device) WriteU64(p Ptr, v uint64)      { binary.LittleEndian.PutUint64(d.mem[p:], v) }
func (d *Device) ReadU64(p Ptr) uint64          { return binary.LittleEndian.Uint64(d.mem[p:]) }

// badSize panics on a device access size other than 1, 2, 4 or 8 bytes —
// the one site behind every sized memory op. It is a kernel-author
// invariant, not an input error: access sizes are constants in kernel
// source, so no job, read or flag can reach it.
func badSize(size int) {
	panic(fmt.Sprintf("simt: unsupported access size %d", size))
}

// checkSize is the size check of the ops whose per-lane decode (loadLE,
// storeLE) does not make it: local, shared and shape-declared accesses.
func checkSize(size int) {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		badSize(size)
	}
}
