package locassm

import (
	"slices"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// This file is the staging half of the pipelined driver: each batch's
// reads (2-bit packed, dna.Pack2Bit, save the few packing would lose,
// which go raw), qualities, and walk-buffer tails are staged into one host
// arena and shipped with a single MemcpyHtoD per arena (and the outputs
// come back in one bulk MemcpyDtoH), replacing the per-read copies of the
// original driver — the Go analogue of the paper's flat §3.2 allocation
// crossing PCIe as one transfer. The arenas are slots of the device's own
// host staging buffer (simt.Device.HostStaging): each side circulates
// min(batches, arenaSlots) of them through a free list, so a run allocates
// no staging once the device has staged a batch as large.

// align64 rounds a size up to the device allocation granularity, so the
// per-arena bases carved out of a slab match what individual Mallocs would
// have returned.
func align64(n int64) int64 { return (n + 63) &^ 63 }

// deviceBytes is the batch's device footprint when its seven arenas are
// packed back-to-back at 64-byte alignment inside one slab region.
func (b *batchPlan) deviceBytes() int64 {
	return align64(b.packArena) + align64(b.seqArena) + align64(b.qualArena) + align64(b.tableArena) +
		align64(b.visArena) + align64(b.walkArena) + align64(b.outArena)
}

// bases carves the batch's arena base addresses out of a slab.
func (b *batchPlan) bases(base simt.Ptr) batchDev {
	var dev batchDev
	p := base
	next := func(n int64) simt.Ptr {
		cur := p
		p += simt.Ptr(align64(n))
		return cur
	}
	dev.packBase = next(b.packArena)
	dev.seqBase = next(b.seqArena)
	dev.qualBase = next(b.qualArena)
	dev.tables = next(b.tableArena)
	dev.visited = next(b.visArena)
	dev.walks = next(b.walkArena)
	dev.outs = next(b.outArena)
	return dev
}

// hostSizes are the batch's host staging images, in hostArena's order: the
// four inputs without the gather slack only the device needs, and the
// output records the bulk readback copies, up to the last one's final field.
func (b *batchPlan) hostSizes() [5]int64 {
	return [5]int64{b.packArena, b.seqArena - 8, b.qualArena - 8, b.walkArena - 8, int64(len(b.items)-1)*outStride + 6}
}

// hostBytes is the batch's host staging footprint, beside deviceBytes.
func (b *batchPlan) hostBytes() (n int64) {
	for _, size := range b.hostSizes() {
		n += size
	}
	return n
}

// hostArena is one slot of the device's host staging buffer, carved at
// stage time into the images of the batch it holds.
type hostArena struct {
	slot  []byte     // the whole slot, sized to its side's largest batch
	plan  *batchPlan // the batch staged in it
	pack  []byte     // packed read bases, at their base offsets
	seq   []byte     // raw read bases of the reads packing would lose
	qual  []byte     // read qualities, at their base offsets
	walks []byte     // walk-buffer image: zeroes with each item's tail in place
	outs  []byte     // output records read back in one copy
}

// stage fills the arena with one batch: sequences and qualities at their
// planned offsets, and a zeroed walk image holding each item's contig
// tail. A left item's reads are staged reverse-complemented, so every walk
// runs rightward. Zeroing the packed and walk images keeps device memory
// content independent of whatever batch previously occupied the slab.
func (a *hostArena) stage(b *batchPlan) {
	a.plan = b
	rest, sizes := a.slot, b.hostSizes()
	for i, img := range [...]*[]byte{&a.pack, &a.seq, &a.qual, &a.walks, &a.outs} {
		*img, rest = rest[:sizes[i]:sizes[i]], rest[sizes[i]:]
	}
	clear(a.pack)
	clear(a.walks)

	for _, p := range b.items {
		left := p.item.left
		for ri := range p.item.reads {
			r := &p.item.reads[ri]
			off := int(p.readOffs[ri])
			switch key := p.keyOffs[ri]; {
			case key&gpuht.Packed == 0:
				raw := a.seq[key : int(key)+len(r.Seq)]
				copy(raw, r.Seq)
				if left {
					dna.RevCompInPlace(raw)
				}
			case left:
				dna.Pack2BitRevComp(a.pack, off, r.Seq)
			default:
				dna.Pack2Bit(a.pack, off, r.Seq)
			}
			qual := a.qual[off : off+len(r.Qual)]
			copy(qual, r.Qual)
			if left {
				slices.Reverse(qual)
			}
		}
		copy(a.walks[p.walkOff:], p.item.tail)
	}
}

// launchedBatch is a batch whose kernel has completed and whose outputs
// have been read back, waiting for the unpack stage.
type launchedBatch struct {
	arena    *hostArena
	exts     [][]byte // per-item extension bytes, rightward orientation
	kres     simt.KernelResult
	transfer clock.Device
}

// launchBatch ships one staged batch to the device (one copy per input
// arena), runs the extension kernel, and reads every output record back in
// a single bulk copy, plus one copy per non-empty extension. Transfer time
// is taken from this batch's traffic on the side's stream, so the total is
// an order-independent sum over batches.
func (d *Driver) launchBatch(stream *simt.Stream, slab simt.Ptr, left bool, arena *hostArena) (launchedBatch, error) {
	if d.Cfg.FaultHook != nil {
		if err := d.Cfg.FaultHook(); err != nil {
			return launchedBatch{}, err
		}
	}
	batch := arena.plan
	bases := batch.bases(slab)
	stream.MemcpyHtoD(bases.packBase, arena.pack)
	stream.MemcpyHtoD(bases.seqBase, arena.seq)
	stream.MemcpyHtoD(bases.qualBase, arena.qual)
	stream.MemcpyHtoD(bases.walks, arena.walks)

	side := "right"
	if left {
		side = "left"
	}
	version, warps := "v1", (len(batch.items)+simt.WarpSize-1)/simt.WarpSize
	kernErrs := make([]error, warps)
	kern := extensionKernelV1(batch, bases, &d.Cfg.Config, kernErrs)
	if d.Cfg.WarpPerTable {
		// v2: one warp per extension.
		version, warps = "v2", len(batch.items)
		kernErrs = make([]error, warps)
		kern = extensionKernelV2(batch, bases, &d.Cfg.Config, kernErrs)
	}
	kres, err := d.Dev.Launch(simt.KernelConfig{
		Name:              "locassm_" + side + "_ext_" + version,
		Warps:             warps,
		LocalBytesPerLane: localBytesPerLane(&d.Cfg.Config),
	}, kern)
	if err != nil {
		return launchedBatch{}, err
	}
	// Scan in warp order: the first recorded fault is deterministic no
	// matter how the warp pool interleaved the warps.
	for _, kerr := range kernErrs {
		if kerr != nil {
			return launchedBatch{}, kerr
		}
	}

	// One bulk readback of all output records, then only the extension
	// bytes each walk actually produced.
	stream.MemcpyDtoH(arena.outs, bases.outs)
	exts := make([][]byte, len(batch.items))
	for i, p := range batch.items {
		rec := arena.outs[p.outOff:]
		extLen := int(uint32(rec[0]) | uint32(rec[1])<<8 | uint32(rec[2])<<16 | uint32(rec[3])<<24)
		ext := make([]byte, extLen)
		if extLen > 0 {
			stream.MemcpyDtoH(ext, bases.walks+simt.Ptr(p.walkOff)+simt.Ptr(len(p.item.tail)))
		}
		exts[i] = ext
	}

	h2d, d2h := stream.Traffic()
	return launchedBatch{
		arena:    arena,
		exts:     exts,
		kres:     kres,
		transfer: d.Dev.TransferTime(h2d) + d.Dev.TransferTime(d2h),
	}, nil
}

// sideOut accumulates one side's results, keyed by contig index, so the
// two sides can run concurrently without sharing Result fields; the driver
// merges sides in a fixed order afterwards.
type sideOut struct {
	ext     [][]byte
	state   []WalkState
	iters   []int
	touched []bool

	Stats // this side's launches, modeled times, batch and re-split counts
}

func newSideOut(n int) *sideOut {
	return &sideOut{
		ext:     make([][]byte, n),
		state:   make([]WalkState, n),
		iters:   make([]int, n),
		touched: make([]bool, n),
	}
}

// unpackBatch decodes the host copies of a launched batch's outputs into
// the side accumulator and returns the staging arena to the side's free
// list.
func unpackBatch(lb launchedBatch, left bool, so *sideOut, free chan<- *hostArena) {
	for i, p := range lb.arena.plan.items {
		rec := lb.arena.outs[p.outOff:]
		state := WalkState(rec[4])
		iters := int(rec[5])
		ext := lb.exts[i]
		if left {
			dna.RevCompInPlace(ext)
		}
		idx := p.item.ctgIdx
		so.ext[idx] = ext
		so.state[idx] = state
		so.iters[idx] += iters
		so.touched[idx] = true
	}
	so.Kernels = append(so.Kernels, lb.kres)
	so.KernelTime += lb.kres.Time
	so.TransferTime += lb.transfer
	free <- lb.arena
}
