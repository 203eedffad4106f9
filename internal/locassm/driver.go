package locassm

import (
	"errors"
	"fmt"
	"sync"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// DriverMode selects how the driver moves batches through the device.
type DriverMode int

const (
	// ModePipelined (the default) runs each side's batches through a
	// 3-stage pack → launch → unpack pipeline and processes the left and
	// right sides concurrently on separate streams, modeling the CUDA
	// driver's stream overlap. Results are bit-identical to ModeSequential.
	ModePipelined DriverMode = iota
	// ModeSequential stages, launches, and unpacks one batch at a time in
	// a fixed order — the reference path the pipelined mode is checked
	// against.
	ModeSequential
)

const (
	// pipelineStreams is how many batch sequences are in flight at once
	// (one per side). Each gets an equal share of the memory budget so the
	// combined footprint never exceeds MemBudget.
	pipelineStreams = 2
	// pipelineDepth bounds the pack → launch and launch → unpack channels:
	// how far ahead the host packs while the device works.
	pipelineDepth = 2
	// arenaSlots caps a side's host staging arenas: the pack stage holds at
	// most pipelineDepth plus the one it packs, so one is always left for
	// the launch stage's resplits (DESIGN §7).
	arenaSlots = pipelineDepth + 2
)

// GPUConfig configures the GPU local-assembly driver.
type GPUConfig struct {
	Config
	// WarpPerTable selects the v2 kernel (one warp builds one hash table,
	// §3.3); false selects the v1 single-thread-per-table kernel.
	WarpPerTable bool
	// MemBudget caps the driver's device footprint in bytes; 0 uses 85% of
	// the device's capacity (leaving room for the runtime, as the real
	// driver must). Each of the pipelineStreams concurrent sides packs
	// batches under an equal share of the budget — in every mode, so the
	// batch structure (and therefore modeled kernel time) is identical
	// whether or not the pipeline is on.
	MemBudget int64
	// Mode selects pipelined (default) or sequential batch processing.
	Mode DriverMode
	// FaultHook, when set, runs before every batch launch; a non-nil
	// return is treated as that launch's failure. The fault-injection
	// plane uses it to abort specific kernel launches and exercise the
	// re-split path.
	FaultHook func() error
}

// GPUResult is the outcome of a GPU local-assembly run: the per-contig
// results and the run's device accounting. Kernels lists the right-side
// batches first, then the left, each in batch order (the input to the
// roofline analysis); Batches sums both sides; Busy is TotalTime.
type GPUResult struct {
	Results []Result
	Stats
}

// TotalTime is the modeled GPU wall-clock: kernels plus PCIe transfers
// (launch overhead is inside each kernel's time).
func (r *GPUResult) TotalTime() clock.Device { return r.KernelTime + r.TransferTime }

// Driver owns a device and runs local assembly on it, performing the
// CPU-side data packing, batch planning, kernel launches, and result
// unpacking of Fig 11's driver function.
type Driver struct {
	Dev *simt.Device
	Cfg GPUConfig
}

// NewDriver creates a driver for the device.
func NewDriver(dev *simt.Device, cfg GPUConfig) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemBudget == 0 {
		cfg.MemBudget = dev.Cfg.GlobalMemBytes * 85 / 100
	}
	return &Driver{Dev: dev, Cfg: cfg}, nil
}

// Run locally assembles the given contigs on the GPU. Contigs with no
// candidate reads pass through untouched (bin 1 is never offloaded). The
// returned results are in input order and bit-identical to RunCPU's,
// regardless of the driver mode.
func (d *Driver) Run(ctgs []*CtgWithReads) (*GPUResult, error) {
	res := &GPUResult{Results: make([]Result, len(ctgs))}
	for i, c := range ctgs {
		res.Results[i].ID = c.ID
	}

	// Plan both sides up front: the per-side batch structure must not
	// depend on the mode, and the pipeline needs the full footprint before
	// anything is in flight.
	sides := [pipelineStreams]bool{false, true} // right first, as before
	var plans [pipelineStreams][]*batchPlan
	var slabBytes, arenaBytes [pipelineStreams]int64
	budget := d.Cfg.MemBudget / pipelineStreams
	for s, left := range sides {
		items := buildSideItems(ctgs, &d.Cfg.Config, left)
		if len(items) == 0 {
			continue
		}
		batches, err := packBatches(items, &d.Cfg.Config, budget)
		if err != nil {
			return nil, err
		}
		plans[s] = batches
		for _, b := range batches {
			slabBytes[s] = max(slabBytes[s], b.deviceBytes())
			arenaBytes[s] = max(arenaBytes[s], b.hostBytes())
		}
	}
	if total := slabBytes[0] + slabBytes[1]; total > d.Dev.Cfg.GlobalMemBytes {
		return nil, fmt.Errorf("locassm: %d bytes of in-flight batches exceed device capacity %d",
			total, d.Dev.Cfg.GlobalMemBytes)
	}

	// One slab per side, sized to that side's largest batch and reused for
	// every batch on that side — §3.2's single flat allocation, carved in
	// two. Allocating (and growing the arena to) the full footprint before
	// anything launches is what lets kernels and copies overlap without the
	// backing store moving. The host side mirrors it in the device's
	// staging buffer: arena slots per side, circulating on a free list.
	dev := d.Dev
	dev.FreeAll()
	defer dev.FreeAll()
	if err := dev.Prealloc(slabBytes[0] + slabBytes[1] + 64); err != nil {
		return nil, err
	}
	var slabs [pipelineStreams]simt.Ptr
	for s := range slabs {
		if slabBytes[s] == 0 {
			continue
		}
		var err error
		slabs[s], err = dev.Malloc(slabBytes[s])
		if err != nil {
			return nil, err
		}
	}
	slots := [pipelineStreams]int{min(len(plans[0]), arenaSlots), min(len(plans[1]), arenaSlots)}
	staging := dev.HostStaging(int64(slots[0])*arenaBytes[0] + int64(slots[1])*arenaBytes[1])
	var free [pipelineStreams]chan *hostArena
	for s, n := range arenaBytes {
		free[s] = make(chan *hostArena, slots[s])
		for range slots[s] {
			free[s] <- &hostArena{slot: staging[:n:n]}
			staging = staging[n:]
		}
	}

	outs := [pipelineStreams]*sideOut{newSideOut(len(ctgs)), newSideOut(len(ctgs))}
	if d.Cfg.Mode == ModeSequential {
		for s, left := range sides {
			if err := d.runSideSequential(plans[s], left, slabs[s], free[s], outs[s]); err != nil {
				return nil, err
			}
		}
	} else {
		var wg sync.WaitGroup
		var errs [pipelineStreams]error
		for s, left := range sides {
			wg.Add(1)
			go func(s int, left bool) {
				defer wg.Done()
				errs[s] = d.runSidePipelined(plans[s], left, slabs[s], free[s], outs[s])
			}(s, left)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Merge per-side outputs in the fixed right-then-left order, so
	// accounting and kernel lists are identical across modes.
	for s, left := range sides {
		so := outs[s]
		res.Stats.Add(so.Stats)
		for i := range so.touched {
			if !so.touched[i] {
				continue
			}
			r := &res.Results[i]
			r.Iters += so.iters[i]
			if left {
				r.LeftExt, r.LeftState = so.ext[i], so.state[i]
			} else {
				r.RightExt, r.RightState = so.ext[i], so.state[i]
			}
		}
	}
	res.Busy = clock.Machine(res.TotalTime())
	return res, nil
}

// maxResplitDepth bounds how many times a faulting batch is halved before
// the driver surrenders: 4 halvings shrink any batch to 1/16th, and a
// single-item batch that still faults cannot be split further anyway.
const maxResplitDepth = 4

// recoverableFault reports whether the error is a table fault the driver
// can recover from by re-splitting the batch: smaller batches mean smaller
// per-item footprints sharing the slab, and a fresh launch re-clears every
// table.
func recoverableFault(err error) bool {
	return errors.Is(err, gpuht.ErrTableFull) || errors.Is(err, gpuht.ErrNoConverge) ||
		errors.Is(err, gpuht.ErrProbeCycle)
}

// splitBatch rebuilds two half-size batches from a faulting batch's items.
// The item plans are re-planned from their original sideItems rather than
// re-laid-out: layoutBatch rebased each plan's readOffs in place, so
// reusing the old plans would rebase them twice.
func splitBatch(b *batchPlan, cfg *Config) [2]*batchPlan {
	mid := (len(b.items) + 1) / 2
	spans := [2][]*itemPlan{b.items[:mid], b.items[mid:]}
	var halves [2]*batchPlan
	for h, span := range spans {
		nb := &batchPlan{}
		for _, p := range span {
			nb.items = append(nb.items, planItem(p.item, cfg))
		}
		layoutBatch(nb)
		halves[h] = nb
	}
	return halves
}

// launchRecover launches one batch, recovering from table faults by
// splitting the batch in half and retrying each half (recursively, up to
// maxResplitDepth) before surrendering. Each half re-plans from scratch, so
// its footprint is a subset of the original and always fits the slab and
// the arena slot: the first half restages into the faulted batch's slot,
// the second takes one from the free list. Successfully launched
// (sub-)batches, with their arenas, are handed to emit in item order; a
// failure frees its arena. The returned count is how many splits happened.
func (d *Driver) launchRecover(stream *simt.Stream, slab simt.Ptr, left bool, arena *hostArena, free chan *hostArena, depth int, emit func(launchedBatch)) (int, error) {
	batch := arena.plan
	lb, err := d.launchBatch(stream, slab, left, arena)
	if err == nil {
		emit(lb)
		return 0, nil
	}
	if !recoverableFault(err) || len(batch.items) < 2 || depth >= maxResplitDepth {
		free <- arena
		if recoverableFault(err) {
			err = fmt.Errorf("locassm: batch of %d items still faulting after %d re-splits: %w",
				len(batch.items), depth, err)
		}
		return 0, err
	}
	resplits := 1
	for h, half := range splitBatch(batch, &d.Cfg.Config) {
		if h > 0 {
			arena = <-free
		}
		arena.stage(half)
		n, err := d.launchRecover(stream, slab, left, arena, free, depth+1, emit)
		resplits += n
		if err != nil {
			return resplits, err
		}
	}
	return resplits, nil
}

// runSideSequential is the reference path: each batch is staged, launched,
// and unpacked before the next one starts.
func (d *Driver) runSideSequential(batches []*batchPlan, left bool, slab simt.Ptr, free chan *hostArena, so *sideOut) error {
	stream := d.Dev.NewStream()
	for _, b := range batches {
		arena := <-free
		arena.stage(b)
		n, err := d.launchRecover(stream, slab, left, arena, free, 0,
			func(lb launchedBatch) { unpackBatch(lb, left, so, free) })
		so.Resplits += n
		if err != nil {
			return err
		}
	}
	so.Batches = len(batches)
	return nil
}

// runSidePipelined runs one side's batches through the 3-stage pipeline:
// a pack goroutine fills staging arenas from the side's free list, a
// launch goroutine ships them and runs kernels on this side's stream, and
// the caller's goroutine unpacks and frees them. Bounded channels keep at
// most pipelineDepth batches queued per stage.
func (d *Driver) runSidePipelined(batches []*batchPlan, left bool, slab simt.Ptr, free chan *hostArena, so *sideOut) error {
	stream := d.Dev.NewStream()

	staged := make(chan *hostArena, pipelineDepth)
	go func() {
		for _, b := range batches {
			arena := <-free
			arena.stage(b)
			staged <- arena
		}
		close(staged)
	}()

	launched := make(chan launchedBatch, pipelineDepth)
	// launchErr and resplits are owned by the launch goroutine until
	// `launched` closes; the close is the synchronization point.
	var launchErr error
	var resplits int
	go func() {
		for arena := range staged {
			if launchErr != nil {
				free <- arena
				continue
			}
			n, err := d.launchRecover(stream, slab, left, arena, free, 0,
				func(lb launchedBatch) { launched <- lb })
			resplits += n
			if err != nil {
				launchErr = err
			}
		}
		close(launched)
	}()

	for lb := range launched {
		unpackBatch(lb, left, so, free)
	}
	so.Batches = len(batches)
	so.Resplits = resplits
	return launchErr
}
