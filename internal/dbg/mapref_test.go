package dbg

// The map-based Count / Filter / Contigs that the owner-partitioned flat
// table replaced (64 mutex-guarded shard maps, a merge, a visited map plus
// an onPath map per walk), kept as the oracle for FuzzTableMatchesMapRef.
// Its records keep exact extension counts, where the flat table's saturate
// at MaxExtCount, so the oracle also checks that saturation changes no
// contig.

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

// refTable is the map-backed table the flat one replaced.
type refTable struct {
	K int
	m map[kmer.Kmer]*refInfo
}

// refInfo is the map implementation's record: Info with exact extension
// counts.
type refInfo struct {
	Count       uint32
	Left, Right [4]uint32
}

// saturated returns the Info the flat table holds for the same occurrences.
func (r *refInfo) saturated() Info {
	info := Info{Count: r.Count}
	for b := range 4 {
		info.Left[b] = uint8(min(r.Left[b], MaxExtCount))
		info.Right[b] = uint8(min(r.Right[b], MaxExtCount))
	}
	return info
}

// refOriented returns the right and left extension counts in the walker's
// orientation (isSelf = the walker holds the canonical form).
func refOriented(info *refInfo, isSelf bool) (right, left [4]uint32) {
	if isSelf {
		return info.Right, info.Left
	}
	r, l := info.Left, info.Right
	return [4]uint32{r[3], r[2], r[1], r[0]}, [4]uint32{l[3], l[2], l[1], l[0]}
}

// refUniqueExt returns the single base with count ≥ minCount, if exactly
// one exists.
func refUniqueExt(e [4]uint32, minCount uint32) (byte, bool) {
	found := -1
	for b := range e {
		if e[b] >= minCount {
			if found >= 0 {
				return 0, false
			}
			found = b
		}
	}
	return byte(found), found >= 0
}

// Len returns the number of distinct canonical k-mers.
func (t *refTable) Len() int { return len(t.m) }

// Lookup returns the info for a k-mer (any orientation) plus whether the
// given orientation is the canonical one.
func (t *refTable) Lookup(km kmer.Kmer) (*refInfo, bool, bool) {
	canon, isSelf := km.Canonical(t.K)
	info, ok := t.m[canon]
	return info, isSelf, ok
}

const refCountShards = 64

// refCount tallies canonical k-mers and their extensions across sequences.
// Sharded locking keeps it parallel while the result stays deterministic
// (counts are commutative).
func refCount(seqs [][]byte, cfg Config) (*refTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type shard struct {
		mu sync.Mutex
		m  map[kmer.Kmer]*refInfo
	}
	shards := make([]shard, refCountShards)
	for i := range shards {
		shards[i].m = make(map[kmer.Kmer]*refInfo)
	}

	var wg sync.WaitGroup
	next := make(chan []byte)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for seq := range next {
				refCountSeq(seq, cfg.K, func(canon kmer.Kmer, left, right int) {
					s := &shards[canon.Hash(0)%refCountShards]
					s.mu.Lock()
					info := s.m[canon]
					if info == nil {
						info = &refInfo{}
						s.m[canon] = info
					}
					info.Count++
					if left >= 0 {
						info.Left[left]++
					}
					if right >= 0 {
						info.Right[right]++
					}
					s.mu.Unlock()
				})
			}
		}()
	}
	for _, s := range seqs {
		next <- s
	}
	close(next)
	wg.Wait()

	merged := make(map[kmer.Kmer]*refInfo)
	for i := range shards {
		for k, v := range shards[i].m {
			merged[k] = v
		}
	}
	return &refTable{K: cfg.K, m: merged}, nil
}

// refCountSeq walks one sequence, reporting each k-mer occurrence in canonical
// orientation with its adjacent bases (−1 when absent/ambiguous).
func refCountSeq(seq []byte, k int, emit func(canon kmer.Kmer, left, right int)) {
	sc := kmer.NewScanner(k)
	for i, b := range seq {
		if !sc.Push(b) {
			continue
		}
		left, right := -1, -1
		if pos := i - k + 1; pos > 0 {
			if c, ok := dna.Code(seq[pos-1]); ok {
				left = int(c)
			}
		}
		if i+1 < len(seq) {
			if c, ok := dna.Code(seq[i+1]); ok {
				right = int(c)
			}
		}
		canon, isSelf := sc.Canonical()
		if !isSelf {
			// In the canonical orientation the preceding base becomes the
			// following base, complemented (and vice versa).
			left, right = refComp(right), refComp(left)
		}
		emit(*canon, left, right)
	}
}

func refComp(c int) int {
	if c < 0 {
		return -1
	}
	return c ^ 3
}

// Filter removes k-mers below MinCount, returning how many were dropped —
// the singleton-error filter of the k-mer analysis stage.
func (t *refTable) Filter(minCount uint32) int {
	dropped := 0
	for k, info := range t.m {
		if info.Count < minCount {
			delete(t.m, k)
			dropped++
		}
	}
	return dropped
}

// sortedKmers returns the canonical k-mers in deterministic order.
func (t *refTable) sortedKmers() []kmer.Kmer {
	ks := make([]kmer.Kmer, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return slices.Compare(ks[i].W[:], ks[j].W[:]) < 0 })
	return ks
}

// Contigs traverses every maximal unambiguously connected path and returns
// the resulting contigs, deterministically (start k-mers are processed in
// sorted order). Each k-mer is consumed by at most one contig.
func (t *refTable) Contigs(cfg Config) []Contig {
	minCtg := cfg.MinCtgLen
	if minCtg <= 0 {
		minCtg = 2 * t.K
	}
	visited := make(map[kmer.Kmer]bool, len(t.m))
	var out []Contig
	var id int64

	for _, start := range t.sortedKmers() {
		if visited[start] {
			continue
		}
		seq, path := t.walkBothWays(start, cfg.MinCount, visited)
		var depth float64
		for _, km := range path {
			visited[km] = true
			depth += float64(t.m[km].Count)
		}
		if len(seq) < minCtg {
			continue
		}
		depth /= float64(len(path))
		// Canonical output orientation: the lexicographically smaller of
		// the sequence and its reverse complement, so results don't depend
		// on traversal direction.
		rc := dna.RevComp(seq)
		if string(rc) < string(seq) {
			seq = rc
		}
		out = append(out, Contig{ID: id, Seq: seq, Depth: depth})
		id++
	}
	return out
}

// walkBothWays extends from start in both directions and returns the
// assembled sequence plus the canonical k-mers consumed.
func (t *refTable) walkBothWays(start kmer.Kmer, minCount uint32, visited map[kmer.Kmer]bool) ([]byte, []kmer.Kmer) {
	k := t.K
	seq := start.Bytes(k)
	canonStart, _ := start.Canonical(k)
	path := []kmer.Kmer{canonStart}
	onPath := map[kmer.Kmer]bool{canonStart: true}

	// Rightward.
	cur := start
	for {
		next, ok := t.step(cur, minCount)
		if !ok {
			break
		}
		canon, _ := next.Canonical(k)
		if visited[canon] || onPath[canon] {
			break
		}
		seq = append(seq, dna.Alphabet[next.Get(k-1)])
		path = append(path, canon)
		onPath[canon] = true
		cur = next
	}

	// Leftward: walk rightward on the reverse complement, then flip.
	cur = start.RevComp(k)
	var leftExt []byte
	for {
		next, ok := t.step(cur, minCount)
		if !ok {
			break
		}
		canon, _ := next.Canonical(k)
		if visited[canon] || onPath[canon] {
			break
		}
		leftExt = append(leftExt, dna.Alphabet[next.Get(k-1)])
		path = append(path, canon)
		onPath[canon] = true
		cur = next
	}
	if len(leftExt) > 0 {
		full := append(dna.RevComp(leftExt), seq...)
		seq = full
	}
	return seq, path
}

// step advances one base rightward from cur when the junction is fully
// unambiguous: cur's right extension is unique, the successor exists, and
// the successor's unique left extension points back at cur.
func (t *refTable) step(cur kmer.Kmer, minCount uint32) (kmer.Kmer, bool) {
	info, isSelf, ok := t.Lookup(cur)
	if !ok {
		return kmer.Kmer{}, false
	}
	right, _ := refOriented(info, isSelf)
	b, uniq := refUniqueExt(right, minCount)
	if !uniq {
		return kmer.Kmer{}, false
	}
	next := cur.Append(t.K, b)
	infoN, isSelfN, ok := t.Lookup(next)
	if !ok {
		return kmer.Kmer{}, false
	}
	_, left := refOriented(infoN, isSelfN)
	back, uniqN := refUniqueExt(left, minCount)
	if !uniqN || back != cur.Get(0) {
		return kmer.Kmer{}, false
	}
	return next, true
}
