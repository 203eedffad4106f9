// Package dbg implements the de Bruijn graph substrate of the pipeline:
// canonical k-mer counting over reads (the "k-mer analysis" stage), error
// filtering (k-mers occurring once are dropped, §2.2), and generation of
// contigs by traversing unambiguously connected paths ("contig generation").
package dbg

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

func code(b byte) (byte, bool) { return dna.Code(b) }

// Config controls counting and traversal.
type Config struct {
	K int
	// MinCount is the error filter: k-mers with fewer occurrences are
	// dropped (2 removes singletons, as MetaHipMer does).
	MinCount uint32
	// MinCtgLen drops contigs shorter than this after traversal
	// (0 defaults to 2·K).
	MinCtgLen int
	// Workers bounds counting parallelism (0 = GOMAXPROCS).
	Workers int
}

// Validate checks config sanity.
func (c *Config) Validate() error {
	if c.K < 4 || c.K > kmer.MaxK {
		return fmt.Errorf("dbg: k %d outside [4,%d]", c.K, kmer.MaxK)
	}
	if c.MinCount < 1 {
		return fmt.Errorf("dbg: MinCount must be ≥ 1")
	}
	return nil
}

// ExtCounts counts observations of each base (2-bit code order) adjacent to
// a k-mer.
type ExtCounts [4]uint32

// Info is the per-canonical-k-mer record.
type Info struct {
	Count uint32
	// Left and Right count the bases observed before/after the k-mer in
	// its canonical orientation.
	Left  ExtCounts
	Right ExtCounts
}

// Table holds counted canonical k-mers.
type Table struct {
	K int
	m map[kmer.Kmer]*Info
}

// NewTable wraps an already-counted canonical-k-mer map in a Table — the
// GPU budget counter builds its map by merging device passes and hands it
// over here, so the traversal code sees one table regardless of how it
// was counted. A nil map yields an empty table.
func NewTable(k int, m map[kmer.Kmer]*Info) *Table {
	if m == nil {
		m = make(map[kmer.Kmer]*Info)
	}
	return &Table{K: k, m: m}
}

// Len returns the number of distinct canonical k-mers.
func (t *Table) Len() int { return len(t.m) }

// Lookup returns the info for a k-mer (any orientation) plus whether the
// given orientation is the canonical one.
func (t *Table) Lookup(km kmer.Kmer) (*Info, bool, bool) {
	canon, isSelf := km.Canonical(t.K)
	info, ok := t.m[canon]
	return info, isSelf, ok
}

const countShards = 64

// Count tallies canonical k-mers and their extensions across sequences.
// Sharded locking keeps it parallel while the result stays deterministic
// (counts are commutative).
func Count(seqs [][]byte, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type shard struct {
		mu sync.Mutex
		m  map[kmer.Kmer]*Info
	}
	shards := make([]shard, countShards)
	for i := range shards {
		shards[i].m = make(map[kmer.Kmer]*Info)
	}

	var wg sync.WaitGroup
	next := make(chan []byte)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for seq := range next {
				countSeq(seq, cfg.K, func(canon kmer.Kmer, left, right int) {
					s := &shards[canon.Hash(0)%countShards]
					s.mu.Lock()
					info := s.m[canon]
					if info == nil {
						info = &Info{}
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

	merged := make(map[kmer.Kmer]*Info)
	for i := range shards {
		for k, v := range shards[i].m {
			merged[k] = v
		}
	}
	return &Table{K: cfg.K, m: merged}, nil
}

// countSeq walks one sequence, reporting each k-mer occurrence in canonical
// orientation with its adjacent bases (−1 when absent/ambiguous).
func countSeq(seq []byte, k int, emit func(canon kmer.Kmer, left, right int)) {
	sc := kmer.NewScanner(k)
	for i, b := range seq {
		if !sc.Push(b) {
			continue
		}
		left, right := -1, -1
		if pos := i - k + 1; pos > 0 {
			if c, ok := code(seq[pos-1]); ok {
				left = int(c)
			}
		}
		if i+1 < len(seq) {
			if c, ok := code(seq[i+1]); ok {
				right = int(c)
			}
		}
		canon, isSelf := sc.Canonical()
		if !isSelf {
			// In the canonical orientation the preceding base becomes the
			// following base, complemented (and vice versa).
			left, right = comp(right), comp(left)
		}
		emit(canon, left, right)
	}
}

func comp(c int) int {
	if c < 0 {
		return -1
	}
	return c ^ 3
}

// Filter removes k-mers below MinCount, returning how many were dropped —
// the singleton-error filter of the k-mer analysis stage.
func (t *Table) Filter(minCount uint32) int {
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
func (t *Table) sortedKmers() []kmer.Kmer {
	ks := make([]kmer.Kmer, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Less(ks[j]) })
	return ks
}
