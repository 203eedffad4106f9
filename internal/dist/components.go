// Component-partitioned sharding: connected components of the round's
// contig graph become the unit of virtual-shard ownership.
//
// The hash shard map scatters every component's contigs across all ranks,
// so each round pays an all-to-all read exchange and a full contig
// allgather. But metagenome de Bruijn graphs decompose into many
// disconnected components — one or a few per organism in communities
// without conserved shared sequence (the "soil metagenome" regime) — and a
// whole component can live on one rank: its candidate reads route locally,
// and its extended contigs need no replication because no contig outside
// the component can ever share a read or a graph edge with them. This file
// builds that partition deterministically and packs it onto the fixed
// virtual shards with LPT (longest-processing-time) bin packing so shards
// stay balanced.
package dist

import (
	"sort"
	"strings"
	"time"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/murmur"
)

// Seeds of the component link-key hash spaces, distinct from the shard and
// read-home seeds so key collisions across spaces are impossible to
// construct accidentally.
const (
	compReadSeed = 0x636f6d70 // "comp": candidate-read support links
	compOvlpSeed = 0x6f766c70 // "ovlp": (k−1)-base end-window links
	compSigSeed  = 0x73696721 // "sig!": component min-hash signatures
)

// sigMerLen is the fixed window of the component signature sketch. It is
// deliberately independent of the round's k: the signature must identify
// the *organism* a component covers, not the round's graph, so that the
// same community member hashes to the same home shard in every contigging
// round.
const sigMerLen = 21

// seqSigKey is the min-hash sketch of one contig sequence: the minimum
// canonical sigMerLen-mer hash over every window. Two contigs covering the
// same genomic region — this round's and the next round's extension of it
// — almost surely contain the region's minimal window and so sketch to the
// same key, which is what keeps component homes stable across rounds.
//
// Windows are hashed in canonical orientation, a window with an ambiguous
// base by its raw bytes.
func seqSigKey(seq []byte) uint64 {
	if len(seq) < sigMerLen {
		return murmur.Hash64A(seq, compSigSeed)
	}
	lo := ^uint64(0)
	sc := kmer.NewScanner(sigMerLen)
	for i, b := range seq {
		valid := sc.Push(b)
		if i < sigMerLen-1 {
			continue
		}
		var h uint64
		if valid {
			canon, _ := sc.Canonical()
			h = canon.HashK(sigMerLen, compSigSeed)
		} else {
			h = murmur.Hash64A(seq[i-sigMerLen+1:i+1], compSigSeed)
		}
		lo = min(lo, h)
	}
	return lo
}

// readLinkKey hashes a candidate read's identity into a component link
// key. The ".merged" suffix is trimmed the way ReadHomeRank trims it, so a
// merged read links the same contigs its originating pair would.
func readLinkKey(id string) uint64 {
	return murmur.Hash64A([]byte(strings.TrimSuffix(id, ".merged")), compReadSeed)
}

// windowLinkKey hashes a (k−1)-base end window in canonical orientation:
// two contigs that adjoin in the de Bruijn graph overlap by exactly k−1
// bases, so the suffix window of one equals the prefix window of the other
// (possibly reverse-complemented). Windows with ambiguous bases fall back
// to a raw-byte hash — they still self-match, which is all linking needs.
func windowLinkKey(seq []byte, w int) uint64 {
	w = min(w, kmer.MaxK)
	km, ok := kmer.FromBytes(seq, w)
	if !ok {
		return murmur.Hash64A(seq[:w], compOvlpSeed)
	}
	canon, _ := km.Canonical(w)
	return canon.HashK(w, compOvlpSeed)
}

// roundComponents runs the connected-components pass over one round's
// local-assembly workload: contigs join one component when they share a
// candidate read (read support — the traffic that matters for the
// exchange) or a canonical (k−1)-base end window (dBG adjacency). The
// result maps every contig ID to its component ID — canonically the
// smallest member contig ID — and is a pure function of (k, ctgs):
// identical for any rank count, schedule, or input permutation.
func roundComponents(k int, ctgs []*locassm.CtgWithReads) map[int64]int64 {
	b := dbg.NewComponentBuilder()
	w := k - 1
	for _, c := range ctgs {
		b.Add(c.ID)
		for i := range c.LeftReads {
			b.Link(c.ID, readLinkKey(c.LeftReads[i].ID))
		}
		for i := range c.RightReads {
			b.Link(c.ID, readLinkKey(c.RightReads[i].ID))
		}
		if len(c.Seq) >= w && w > 0 {
			b.Link(c.ID, windowLinkKey(c.Seq[:w], w))
			b.Link(c.ID, windowLinkKey(c.Seq[len(c.Seq)-w:], w))
		}
	}
	return b.Components()
}

// componentShardMap assigns whole components to virtual shards. Built once
// per round from the global workload, it is deterministic and independent
// of the rank count, so the per-shard batch plans — and therefore kernel
// launch lists — stay bit-identical across N under this policy exactly as
// under hashing.
type componentShardMap struct {
	shards int
	comp   map[int64]int64 // ctgID → componentID (smallest member)
	place  map[int64]int   // componentID → virtual shard
	count  int             // number of components this round
	// maxLoad/meanLoad expose the LPT balance for tests and the report.
	maxLoad, meanLoad int64
}

// ctgWeight is the size-aware packing weight of one contig: its sequence
// plus the candidate-read bytes it drags along — a proxy for both the
// assembly work and the traffic of owning it.
func ctgWeight(c *locassm.CtgWithReads) int64 {
	w := int64(len(c.Seq) + recordOverheadBytes)
	for i := range c.LeftReads {
		w += readMsgBytes(&c.LeftReads[i])
	}
	for i := range c.RightReads {
		w += readMsgBytes(&c.RightReads[i])
	}
	return w
}

// newComponentShardMap discovers the round's components and packs them
// onto the virtual shards with affinity-aware LPT: components sorted by
// weight descending (ties broken by component ID ascending) each go to the
// currently lightest shard (ties to the lowest index) — unless the
// component's *home* shard is within slack of the lightest, in which case
// home wins. The home is the min-hash sketch of the component's contig
// sequences (seqSigKey): the same organism's components contain the same
// genomic minimum window in every contigging round, so the home shard is
// stable across rounds even though contig IDs and component boundaries are
// not. That affinity is what lets resident reads stay put between rounds
// instead of re-migrating with every re-packing. The slack keeps the
// greedy bound: every shard's final load is ≤ mean + 3× the heaviest
// component. The whole procedure remains a pure, deterministic function of
// (k, ctgs) — never of N or residences.
func newComponentShardMap(k int, ctgs []*locassm.CtgWithReads, shards int) *componentShardMap {
	comp := roundComponents(k, ctgs)
	weight := make(map[int64]int64)
	sig := make(map[int64]uint64)
	minSig := func(id int64, key uint64) {
		if s, ok := sig[id]; !ok || key < s {
			sig[id] = key
		}
	}
	for _, c := range ctgs {
		id := comp[c.ID]
		weight[id] += ctgWeight(c)
		minSig(id, seqSigKey(c.Seq))
	}

	ids := make([]int64, 0, len(weight))
	var total, maxW int64
	for id, w := range weight {
		ids = append(ids, id)
		total += w
		maxW = max(maxW, w)
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := weight[ids[i]], weight[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})

	load := make([]int64, shards)
	place := make(map[int64]int, len(ids))
	for _, id := range ids {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		if s, ok := sig[id]; ok {
			if home := int(s % uint64(shards)); load[home] <= load[best]+2*maxW {
				best = home
			}
		}
		place[id] = best
		load[best] += weight[id]
	}

	m := &componentShardMap{
		shards: shards,
		comp:   comp,
		place:  place,
		count:  len(ids),
	}
	for _, l := range load {
		m.maxLoad = max(m.maxLoad, l)
	}
	if shards > 0 {
		m.meanLoad = total / int64(shards)
	}
	return m
}

// Shard returns the virtual shard owning the contig's whole component.
// Contigs outside the build set (none in a normal round) fall back to the
// hash map so the partition stays total.
func (m *componentShardMap) Shard(id int64) int {
	if c, ok := m.comp[id]; ok {
		return m.place[c]
	}
	return VirtualShard(id, m.shards)
}

// componentPolicy is the component shard policy's per-run state: the current
// residence rank of every routed read (reads live with their component
// between rounds), the per-round component counts, and the accumulated wall
// time of the connected-components passes.
type componentPolicy struct {
	shards    int
	mem       *Membership
	residence map[string]int
	counts    []int
	passTime  time.Duration
}

// roundShardMap runs the (timed) connected-components pass over the round's
// global workload and packs whole components onto the virtual shards.
func (p *componentPolicy) roundShardMap(k int, ctgs []*locassm.CtgWithReads) ShardMap {
	start := time.Now()
	m := newComponentShardMap(k, ctgs, p.shards)
	p.passTime += time.Since(start)
	p.counts = append(p.counts, m.count)
	return m
}

func (p *componentPolicy) components() ([]int, time.Duration) { return p.counts, p.passTime }

// exchangeMatrix models the component policy's read routing: instead of
// re-shipping every candidacy from its hash home each round (MHM2's
// aggregating stores), reads live with their component. Each candidate
// read is shipped at most once per round, from its current residence to
// the rank owning its component — every contig it is a candidate for
// shares that component (a shared read is a component link), so one
// shipment serves all its candidacies. Reads already resident with their
// owner contribute rank-local bytes, never the wire; the residence map is
// updated in place so the next round only pays for components whose
// ownership moved.
func (p *componentPolicy) exchangeMatrix(ctgs []*locassm.CtgWithReads, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	shipped := make(map[string]bool)
	route := func(r *dna.Read, dst int) {
		id := strings.TrimSuffix(r.ID, ".merged")
		if shipped[id] {
			return
		}
		shipped[id] = true
		src, ok := p.residence[id]
		if !ok || !p.mem.Alive(src) {
			// First appearance (or the old home crashed): the read comes
			// from its scatter home among the live ranks, where the
			// replicated copy survives.
			src = deal.readHome(id)
		}
		matrix[src][dst] += readMsgBytes(r)
		p.residence[id] = dst
	}
	for _, c := range ctgs {
		dst := deal.rankOf(smap.Shard(c.ID))
		for i := range c.LeftReads {
			route(&c.LeftReads[i], dst)
		}
		for i := range c.RightReads {
			route(&c.RightReads[i], dst)
		}
	}
	return matrix
}

// gatherMatrix replaces the full contig allgather under component
// sharding: whole components are co-located with their candidate reads,
// and components are closed under both read support and dBG adjacency (a
// shared read or end window is precisely a component link), so no contig
// outside a component can ever need its extended sequence — cross-
// component contigs do not exist by construction, and the owner only
// refreshes its component-local alignment index. Every byte is rank-local
// (src == dst), which the fabric counts but never puts on the wire; the
// next round's cross-component discovery is paid for where it really
// happens, in that round's read migration.
func (p *componentPolicy) gatherMatrix(ctgs []*locassm.CtgWithReads, results []locassm.Result, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	for i, c := range ctgs {
		owner := deal.rankOf(smap.Shard(c.ID))
		matrix[owner][owner] += int64(len(results[i].LeftExt) + len(c.Seq) + len(results[i].RightExt) + recordOverheadBytes)
	}
	return matrix
}
