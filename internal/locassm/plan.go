package locassm

import (
	"fmt"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
)

// sideItem is one extension work item — one warp's worth of work: a contig
// end with its candidate reads, oriented so the walk always runs rightward.
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

	readOffs []uint32 // per-read offset in the seq/qual arenas
	seqBytes int64

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

	seqArena   int64 // bytes of read sequence (shared arena)
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
	for i := range it.reads {
		p.readOffs[i] = uint32(p.seqBytes)
		p.seqBytes += int64(len(it.reads[i].Seq))
		if len(it.reads[i].Seq) > maxLen {
			maxLen = len(it.reads[i].Seq)
		}
	}
	// §3.2: l·r slots rather than (l−k+1)·r caps the load factor at
	// (l−k+1)/l ≈ 0.93 while avoiding per-k resizing.
	p.tableSlots = gpuht.SlotsPerExtension(maxLen, len(it.reads))
	p.visitedSlots = 2 * (cfg.MaxWalkLen + cfg.MaxMer)
	p.walkBytes = cfg.MaxMer + cfg.MaxWalkLen + 8 // slack for 8-byte gathers
	return p
}

func (p *itemPlan) bytes() int64 {
	return p.seqBytes*2 + // seq + qual
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

// layoutBatch assigns arena-relative offsets. Each arena is padded by 8
// bytes so vector gathers may over-read safely.
func layoutBatch(b *batchPlan) {
	var seq, table, vis, walk, out int64
	for _, p := range b.items {
		for i := range p.readOffs {
			p.readOffs[i] += uint32(seq)
		}
		p.tableOff, p.visitedOff, p.walkOff, p.outOff = table, vis, walk, out
		seq += p.seqBytes
		table += gpuht.Bytes(p.tableSlots)
		vis += gpuht.VisitedBytes(p.visitedSlots)
		walk += int64(p.walkBytes)
		out += outStride
	}
	b.seqArena = seq + 8
	b.qualArena = seq + 8
	b.tableArena = table
	b.visArena = vis
	b.walkArena = walk + 8
	b.outArena = out
}

// buildSideItems collects the work items for one side of every contig in
// the bin, oriented rightward. Contigs shorter than MinMer or ends without
// reads produce no item.
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
		it := &sideItem{ctgIdx: idx, left: left}
		if left {
			seq := dna.RevComp(c.Seq)
			it.tail = tailOf(seq, cfg.MaxMer)
			it.reads = make([]dna.Read, len(reads))
			for i := range reads {
				it.reads[i] = reads[i].RevComp()
			}
		} else {
			it.tail = tailOf(c.Seq, cfg.MaxMer)
			it.reads = reads
		}
		items = append(items, it)
	}
	return items
}

func tailOf(seq []byte, n int) []byte {
	if len(seq) <= n {
		return append([]byte(nil), seq...)
	}
	return append([]byte(nil), seq[len(seq)-n:]...)
}
