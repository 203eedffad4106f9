package dbg

import "mhm2sim/internal/dna"

// Contig is one unambiguous path through the de Bruijn graph.
type Contig struct {
	ID    int64
	Seq   []byte
	Depth float64 // mean k-mer count along the path
}

// uniqueExt returns the single base whose byte in e (base b in byte b) is
// ≥ minCount, if exactly one is.
func uniqueExt(e, minCount uint32) (byte, bool) {
	n, found := 0, 0
	for b := range 4 {
		if e>>(8*b)&0xff >= minCount {
			n, found = n+1, b
		}
	}
	return byte(found), n == 1
}

// Contigs traverses every maximal unambiguously connected path and returns
// the resulting contigs, deterministically (start k-mers are processed in
// sorted order). Each k-mer is consumed by at most one contig: seen flags
// every slot a walk has stepped on, which covers both "already in an
// earlier contig" and "already on this path". cfg.MinCount must pass
// Validate: extension counts saturate at MaxExtCount.
func (t *Table) Contigs(cfg Config) []Contig {
	minCtg := cfg.MinCtgLen
	if minCtg <= 0 {
		minCtg = 2 * t.K
	}
	seen := make([][]bool, len(t.parts))
	for i := range seen {
		seen[i] = make([]bool, t.parts[i].size)
	}
	var out []Contig
	var id int64

	for _, s := range t.startOrder() {
		pi, i := int(s.slot>>32), int(uint32(s.slot))
		if seen[pi][i] {
			continue
		}
		start := cursor{km: t.parts[pi].kmerAt(i), part: pi, idx: i, isSelf: true}
		seq, counts, n := t.walkBothWays(start, cfg.MinCount, seen)
		if len(seq) < minCtg {
			continue
		}
		// Canonical output orientation: the lexicographically smaller of
		// the sequence and its reverse complement, so results don't depend
		// on traversal direction.
		rc := dna.RevComp(seq)
		if string(rc) < string(seq) {
			seq = rc
		}
		out = append(out, Contig{ID: id, Seq: seq, Depth: float64(counts) / float64(n)})
		id++
	}
	return out
}

// walkBothWays extends from start in both directions, flagging the slots
// it consumes, and returns the assembled sequence plus the sum of the
// consumed k-mers' counts and their number.
func (t *Table) walkBothWays(start cursor, minCount uint32, seen [][]bool) (seq []byte, counts uint64, n int) {
	k := t.K
	seen[start.part][start.idx] = true
	counts, n = t.parts[start.part].count(start.idx), 1
	extend := func(cur cursor, ext []byte) []byte {
		for {
			next, ok := t.step(cur, minCount)
			if !ok || seen[next.part][next.idx] {
				return ext
			}
			seen[next.part][next.idx] = true
			counts += t.parts[next.part].count(next.idx)
			n++
			ext = append(ext, dna.Alphabet[next.km.Get(k-1)])
			cur = next
		}
	}
	seq = extend(start, start.km.Bytes(k))

	// Leftward: walk rightward on the reverse complement, then flip.
	rc := cursor{km: start.km.RevComp(k), part: start.part, idx: start.idx}
	rc.isSelf = rc.km == start.km
	if leftExt := extend(rc, nil); len(leftExt) > 0 {
		seq = append(dna.RevComp(leftExt), seq...)
	}
	return seq, counts, n
}

// step advances one base rightward from cur when the junction is fully
// unambiguous: cur's right extension is unique, the successor exists, and
// the successor's unique left extension points back at cur. The successor
// comes back located, so the next step starts from its slot.
func (t *Table) step(cur cursor, minCount uint32) (cursor, bool) {
	b, uniq := uniqueExt(uint32(t.ext(cur)>>32), minCount)
	if !uniq {
		return cursor{}, false
	}
	next, ok := t.locate(cur.km.Append(t.K, b))
	if !ok {
		return cursor{}, false
	}
	back, uniqN := uniqueExt(uint32(t.ext(next)), minCount)
	return next, uniqN && back == cur.km.Get(0)
}
