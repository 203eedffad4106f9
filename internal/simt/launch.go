package simt

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// ErrDeviceLost is returned by Launch after a fault has been injected with
// InjectFault: the modeled device is gone and the caller must fail over
// (the dist runtime degrades the rank to its host engine).
var ErrDeviceLost = errors.New("simt: device lost")

// ErrDeviceClosed is returned by a Launch that needs the warp pool after Close.
var ErrDeviceClosed = errors.New("simt: device closed")

// ErrSectorBytes is returned by Launch on a device whose Cfg.SectorBytes is
// not a power of two ≥ 8: sector indices are shifts, and an access (≤ 8
// bytes) spans at most two sectors.
var ErrSectorBytes = errors.New("simt: DeviceConfig.SectorBytes must be a power of two ≥ 8")

// KernelConfig describes one kernel launch.
type KernelConfig struct {
	// Name labels the kernel in results and roofline output.
	Name string
	// Warps is the grid size in warps (the local-assembly kernels launch
	// one warp per contig extension).
	Warps int
	// LocalBytesPerLane sizes each lane's private local-memory array
	// (per-thread scratch that real CUDA would spill to local memory).
	LocalBytesPerLane int
	// Sequential forces warps to run on the calling goroutine, in warp
	// order. The default runs warps on the device's persistent worker
	// pool; kernels must only write device regions owned by their own
	// warp (the local-assembly kernels — one warp per contig extension)
	// or leave their other writes to Commit.
	Sequential bool
	// Commit makes the launch ordered-commit (DESIGN.md §12): kern(w) runs
	// on the pool in any order, then Commit(w) on the launching goroutine
	// for warp 0, 1, 2, … one at a time. kern may read only device memory
	// that no Commit of the launch writes, and leaves what it wants written
	// in w.Scratch; besides the warp's counters nothing else passes on.
	Commit func(w *Warp)
}

// An ordered launch gives the pool commitChunk consecutive warps per job and
// keeps at most commitRing warps between kern and Commit. The launching
// goroutine issues chunk c+commitRing only after committing chunk c, so a
// ring slot has one generation in flight, a done channel holds at most one
// token, and no worker ever blocks on one.
const commitChunk, commitRing = 32, 4 * 32

// launchState carries one Launch call's shared state to the pool workers.
// It is pooled on the device so a launch allocates neither the state, the
// stats slab, the completion group, the caller-side warp context nor the ring.
type launchState struct {
	dev     *Device
	kern    func(w *Warp)
	perLane int
	perWarp []Stats
	wg      sync.WaitGroup
	ctx     Warp
	scratch [commitRing]any                         // each in-flight warp's Scratch
	done    [commitRing / commitChunk]chan struct{} // a chunk's kern half has run
}

// runWarp executes one warp on the given context. Per-warp stats land in
// per-warp slots, so the merged counters are deterministic regardless of
// worker scheduling.
func (ls *launchState) runWarp(id int, w *Warp) {
	w.reset(ls.dev, id, ls.perLane)
	w.stats.Warps = 1
	ls.kern(w)
	ls.perWarp[id] = w.stats
}

// warpJob is one warp's execution request on the device worker pool or,
// with n > 0, the kern half of an ordered launch's n warps from id.
type warpJob struct {
	ls    *launchState
	id, n int
}

// runChunk executes an ordered launch's job on a worker's context, each warp
// on the Scratch its ring slot holds, and hands the chunk back.
func (j warpJob) runChunk(w *Warp) {
	for id := j.id; id < j.id+j.n; id++ {
		s := &j.ls.scratch[id%commitRing]
		w.Scratch = *s
		j.ls.runWarp(id, w)
		*s = w.Scratch
	}
	w.Scratch = nil
	j.ls.done[j.id%commitRing/commitChunk] <- struct{}{}
}

// warpPool returns the device's persistent warp worker pool, creating it on
// first use. The pool is created once per device and fed through a buffered
// channel; concurrent Launches (pipelined batches, multiple streams) share
// the same workers safely because every job carries its own launch state
// and completion group. Each worker keeps a private warp context across
// jobs (worker affinity, the internal/par pattern), so per-warp arenas are
// reused instead of reallocated.
func (d *Device) warpPool() chan<- warpJob {
	d.poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		d.pool = make(chan warpJob, 8*workers)
		for i := 0; i < workers; i++ {
			go func() {
				var ctx Warp
				for j := range d.pool {
					if j.n > 0 {
						j.runChunk(&ctx)
						continue
					}
					j.ls.runWarp(j.id, &ctx)
					j.ls.wg.Done()
				}
			}()
		}
	})
	return d.pool
}

// Close stops the device's warp worker pool, if one was started, once the
// launches on it have finished, and drops its host staging buffer; the
// device's creator calls it, or the parked workers pin the arena. Launches
// that run on the caller (Sequential, one warp) still work; one that needs
// the pool returns ErrDeviceClosed.
func (d *Device) Close() {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if !d.closed && d.pool != nil {
		close(d.pool)
	}
	d.closed = true
	d.mu.Lock()
	d.host = nil
	d.mu.Unlock()
}

// Launch executes kern once per warp and returns merged counters plus the
// modeled kernel time. The functional result (device memory contents) is
// deterministic as long as warps write disjoint regions, and the merged
// counters are deterministic regardless of worker scheduling: per-warp
// stats land in per-warp slots and fold in warp order.
//
// Steady-state launches are allocation-free: the launch state, stats slab,
// and warp contexts (including local-memory arenas) are pooled with worker
// affinity and zeroed in place.
func (d *Device) Launch(cfg KernelConfig, kern func(w *Warp)) (KernelResult, error) {
	if cfg.Warps < 0 {
		return KernelResult{}, fmt.Errorf("simt: negative warp count %d", cfg.Warps)
	}
	if cfg.LocalBytesPerLane < 0 {
		return KernelResult{}, fmt.Errorf("simt: negative local bytes per lane %d", cfg.LocalBytesPerLane)
	}
	if sb := d.Cfg.SectorBytes; sb < 8 || sb&(sb-1) != 0 {
		return KernelResult{}, fmt.Errorf("%w, got %d", ErrSectorBytes, sb)
	}
	// Sequential and Commit are one caller-side in-order loop; an ordered
	// launch runs the kern half on the pool ahead of it.
	inOrder := cfg.Sequential || cfg.Warps <= 1 || cfg.Commit != nil
	ordered := cfg.Commit != nil && !cfg.Sequential && cfg.Warps > commitChunk && runtime.GOMAXPROCS(0) > 1
	var pool chan<- warpJob
	if ordered || !inOrder {
		// Close takes the write side: the pool cannot close under a send.
		d.poolMu.RLock()
		defer d.poolMu.RUnlock()
		if d.closed {
			return KernelResult{}, ErrDeviceClosed
		}
		pool = d.warpPool()
	}

	var ls *launchState
	d.mu.Lock()
	err := d.fault
	if n := len(d.lsFree); err == nil && n > 0 {
		ls, d.lsFree = d.lsFree[n-1], d.lsFree[:n-1]
	}
	d.mu.Unlock()
	if err != nil {
		return KernelResult{}, err
	}
	if ls == nil {
		ls = &launchState{}
		for i := range ls.done {
			ls.done[i] = make(chan struct{}, 1)
		}
	}
	ls.dev, ls.kern, ls.perLane = d, kern, cfg.LocalBytesPerLane
	// Every slot [0, Warps) is overwritten by runWarp; no clear needed.
	ls.perWarp = slices.Grow(ls.perWarp[:0], cfg.Warps)[:cfg.Warps]

	if inOrder {
		w, issued := &ls.ctx, 0
		for id := 0; id < cfg.Warps; id++ {
			if !ordered {
				ls.runWarp(id, w)
			} else {
				if id%commitChunk == 0 {
					for ; issued < min(cfg.Warps, id+commitRing); issued += commitChunk {
						pool <- warpJob{ls: ls, id: issued, n: min(commitChunk, cfg.Warps-issued)}
					}
					<-ls.done[id%commitRing/commitChunk]
				}
				w.reset(d, id, ls.perLane)
				w.stats, w.Scratch = ls.perWarp[id], ls.scratch[id%commitRing]
			}
			if cfg.Commit != nil {
				cfg.Commit(w)
				ls.perWarp[id] = w.stats
			}
		}
	} else {
		ls.wg.Add(cfg.Warps)
		for id := 0; id < cfg.Warps; id++ {
			pool <- warpJob{ls: ls, id: id}
		}
		ls.wg.Wait()
	}

	var res KernelResult
	res.Kernel = cfg.Name
	for i := range ls.perWarp {
		res.Stats.Add(&ls.perWarp[i])
	}
	// Stats.Add maxes MaxSerialMemChain across warps and sums Warps.
	res.Time, res.Bound = timeModel(d.Cfg, &res.Stats)
	ls.dev, ls.kern = nil, nil
	d.mu.Lock()
	d.lsFree = append(d.lsFree, ls)
	d.mu.Unlock()
	return res, nil
}
