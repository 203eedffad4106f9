package locassm

import (
	"fmt"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
)

// sideItem is one extension work item — one warp's worth of work: a contig
// end with its candidate reads. The walk always runs rightward: a left
// item's tail is the reverse complement of the contig's head, and its
// reads, held as the contig has them, are staged reverse-complemented.
type sideItem struct {
	ctgIdx int  // index into the run's contig slice
	left   bool // whether this is the left end (output gets re-reversed)
	tail   []byte
	reads  []dna.Read
}

// itemPlan carries the §3.2 exact-size bookkeeping for one item: where its
// reads, hash table, visited table, walk buffer, and output live inside the
// batch's flat device allocation. Offsets are relative to the batch bases.
type itemPlan struct {
	item *sideItem

	readOffs []uint32 // per-read offset in bases: in the packed and qual arenas
	keyOffs  []uint32 // per-read key offset of its first k-mer (gpuht.Packed, or the raw arena's)
	bases    int64
	rawBytes int64 // bytes of the reads packing would lose, staged raw

	tableSlots   int
	visitedSlots int
	walkBytes    int

	// Assigned at batch layout time.
	tableOff   int64
	visitedOff int64
	walkOff    int64
	outOff     int64
}

// batchPlan is one GPU batch: items whose combined footprint fits the
// device-memory budget, with the flat-allocation layout computed. This is
// the role of the paper's ht_sizes array: exact per-extension sizes packed
// into a single allocation (§3.2).
type batchPlan struct {
	items []*itemPlan

	packArena  int64 // 2-bit packed reads, in whole words
	seqArena   int64 // raw bytes of the reads that are not dna.Packable
	qualArena  int64
	tableArena int64
	visArena   int64
	walkArena  int64
	outArena   int64
}

// planItem computes one item's exact sizes.
func planItem(it *sideItem, cfg *Config) *itemPlan {
	p := &itemPlan{item: it}
	maxLen := 0
	p.readOffs = make([]uint32, len(it.reads))
	p.keyOffs = make([]uint32, len(it.reads))
	for i := range it.reads {
		seq := it.reads[i].Seq
		p.readOffs[i] = uint32(p.bases)
		p.keyOffs[i] = gpuht.Packed | uint32(p.bases)
		packable := dna.Packable(seq)
		if it.left { // staged as its reverse complement, which RevComp upper-cases
			packable = dna.CountValid(seq) == len(seq)
		}
		if !packable {
			p.keyOffs[i] = uint32(p.rawBytes)
			p.rawBytes += int64(len(seq))
		}
		p.bases += int64(len(seq))
		maxLen = max(maxLen, len(seq))
	}
	// §3.2: l·r slots rather than (l−k+1)·r caps the load factor at
	// (l−k+1)/l ≈ 0.93 while avoiding per-k resizing.
	p.tableSlots = gpuht.SlotsPerExtension(maxLen, len(it.reads))
	p.visitedSlots = 2 * (cfg.MaxWalkLen + cfg.MaxMer)
	p.walkBytes = cfg.MaxMer + cfg.MaxWalkLen + 8 // slack for 8-byte gathers
	return p
}

func (p *itemPlan) bytes() int64 {
	return (p.bases+3)/4 + p.bases + p.rawBytes + // packed + qual + raw
		gpuht.Bytes(p.tableSlots) +
		gpuht.VisitedBytes(p.visitedSlots) +
		int64(p.walkBytes) +
		outStride // output record
}

// packBatches greedily packs items into batches under the byte budget.
// Items too large for the budget on their own are rejected — the driver
// surfaces that as a configuration error rather than thrashing.
func packBatches(items []*sideItem, cfg *Config, budget int64) ([]*batchPlan, error) {
	var batches []*batchPlan
	cur := &batchPlan{}
	var curBytes int64
	for _, it := range items {
		p := planItem(it, cfg)
		need := p.bytes()
		if need > budget {
			return nil, fmt.Errorf("locassm: item with %d reads needs %d bytes, over the %d-byte device budget",
				len(it.reads), need, budget)
		}
		if curBytes+need > budget && len(cur.items) > 0 {
			layoutBatch(cur)
			batches = append(batches, cur)
			cur, curBytes = &batchPlan{}, 0
		}
		cur.items = append(cur.items, p)
		curBytes += need
	}
	if len(cur.items) > 0 {
		layoutBatch(cur)
		batches = append(batches, cur)
	}
	return batches, nil
}

// layoutBatch assigns arena-relative offsets. Each byte arena is padded by
// 8 bytes and the packed one by a word, so vector gathers may over-read
// safely.
func layoutBatch(b *batchPlan) {
	var bases, raw, table, vis, walk, out int64
	for _, p := range b.items {
		for i := range p.readOffs {
			p.readOffs[i] += uint32(bases)
			if p.keyOffs[i]&gpuht.Packed != 0 {
				p.keyOffs[i] += uint32(bases)
			} else {
				p.keyOffs[i] += uint32(raw)
			}
		}
		p.tableOff, p.visitedOff, p.walkOff, p.outOff = table, vis, walk, out
		bases += p.bases
		raw += p.rawBytes
		table += gpuht.Bytes(p.tableSlots)
		vis += gpuht.VisitedBytes(p.visitedSlots)
		walk += int64(p.walkBytes)
		out += outStride
	}
	b.packArena = 8 * ((bases+31)/32 + 1)
	b.seqArena = raw + 8
	b.qualArena = bases + 8
	b.tableArena = table
	b.visArena = vis
	b.walkArena = walk + 8
	b.outArena = out
}

// buildSideItems collects the work items for one side of every contig in
// the bin. Contigs shorter than MinMer or ends without reads produce no
// item. Items share the contigs' reads and the right tails their bytes.
func buildSideItems(ctgs []*CtgWithReads, cfg *Config, left bool) []*sideItem {
	var items []*sideItem
	for idx, c := range ctgs {
		reads := c.RightReads
		if left {
			reads = c.LeftReads
		}
		if len(reads) == 0 || len(c.Seq) < cfg.MinMer {
			continue
		}
		tail := c.Seq[max(0, len(c.Seq)-cfg.MaxMer):]
		if left {
			tail = dna.RevComp(c.Seq[:min(len(c.Seq), cfg.MaxMer)])
		}
		items = append(items, &sideItem{ctgIdx: idx, left: left, tail: tail, reads: reads})
	}
	return items
}
