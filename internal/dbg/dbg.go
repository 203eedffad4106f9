// Package dbg implements the de Bruijn graph substrate of the pipeline:
// canonical k-mer counting over reads (the "k-mer analysis" stage), error
// filtering (k-mers occurring once are dropped, §2.2), and generation of
// contigs by traversing unambiguously connected paths ("contig generation").
package dbg

import (
	"fmt"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/par"
)

// Config controls counting and traversal.
type Config struct {
	K int
	// MinCount is the error filter: k-mers with fewer occurrences are
	// dropped (2 removes singletons, as MetaHipMer does). At most
	// MaxExtCount.
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
	if c.MinCount < 1 || c.MinCount > MaxExtCount {
		return fmt.Errorf("dbg: MinCount %d outside [1,%d]", c.MinCount, MaxExtCount)
	}
	return nil
}

// MaxExtCount is where an extension count saturates, and the largest
// MinCount: min(e, 255) ≥ m exactly when e ≥ m for m ≤ 255, so traversal,
// which only compares extension counts with MinCount, sees no difference.
const MaxExtCount = 255

// Info is the per-canonical-k-mer record. Count is exact (Depth sums it);
// Left and Right count each base (2-bit code order) seen before/after the
// k-mer in its canonical orientation, saturating at MaxExtCount, so
// MinCount may not exceed MaxExtCount.
type Info struct {
	Count       uint32
	Left, Right [4]uint8
}

// scanBatch bounds the k-mer occurrences binned between two drains, so the
// bins stay cache-sized however large the input is.
const scanBatch = 1 << 15

// A Counter counts round after round of k-mers in memory that lives for
// the run (or a daemon worker's jobs), not the round: Count reuses the slot
// arrays of the table last handed back by Release, and the bins of one
// Count serve the next. Not for concurrent use.
type Counter struct {
	free [][]uint64 // the released table's slot arrays, by partition
	bins [][]uint64 // bins[span*owners+owner], kept empty between batches
}

// Release hands t's slot arrays to the next Count; t is unusable after.
func (c *Counter) Release(t *Table) {
	c.free = c.free[:0]
	for _, p := range t.parts {
		c.free = append(c.free, p.slots)
	}
	t.parts = nil
}

// Count is Counter.Count on a fresh Counter.
func Count(seqs [][]byte, cfg Config) (*Table, error) { return new(Counter).Count(seqs, cfg) }

// Count tallies canonical k-mers and their extensions across sequences the
// way MetaHipMer's k-mer analysis does between ranks: the table has one
// partition per worker, and counting alternates two barriered phases over
// batches of sequences. In the scan phase each fixed span of a batch
// (par.SpanSize) appends the occurrences it finds to its bins, one per
// owner; in the drain phase every owner empties the bins addressed to it
// into its own partition. A bin has one writer in the first phase and one
// reader in the second and a partition is only ever touched by its owner,
// so nothing is locked and nothing is merged at the end; counts are
// commutative sums, so the table is the same at any worker count, and
// since spans, not workers, index the bins, so is what they allocate.
func (c *Counter) Count(seqs [][]byte, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := par.Workers(cfg.Workers)
	t := newTable(cfg.K, workers, kmer.Windows(seqs, cfg.K)/occPerSlot, c.free)
	c.free = nil
	for lo := 0; lo < len(seqs); {
		hi, n := lo+1, kmer.Windows(seqs[lo:lo+1], cfg.K)
		for ; hi < len(seqs); hi++ {
			if n += kmer.Windows(seqs[hi:hi+1], cfg.K); n > scanBatch {
				break
			}
		}
		chunk := par.SpanSize(hi-lo, workers)
		nbins := (hi - lo + chunk - 1) / chunk * workers
		c.bins = append(c.bins, make([][]uint64, max(nbins-len(c.bins), 0))...)
		par.ForEachSpan(workers, hi-lo, chunk, func(_ int, s par.Span) {
			span, bins := seqs[lo+s.Lo:lo+s.Hi], c.bins[s.Lo/chunk*workers:][:workers]
			// A bin too small for its share of the span is re-made with a
			// quarter to spare; one that overflows still grows by append.
			share := kmer.Windows(span, cfg.K) / workers
			for o, b := range bins {
				if cap(b) < (share+1)*(1+t.words) {
					bins[o] = make([]uint64, 0, (share+share/4+1)*(1+t.words))
				}
			}
			for _, seq := range span {
				t.scan(seq, bins)
			}
		})
		par.ForEachSpan(workers, workers, 1, func(_ int, s par.Span) {
			for i := s.Lo; i < nbins; i += workers {
				t.parts[s.Lo].drain(c.bins[i])
				c.bins[i] = c.bins[i][:0]
			}
		})
		lo = hi
	}
	return t, nil
}

// scan appends every k-mer occurrence of seq, in canonical orientation, to
// the bin of the partition that owns it. A record is 1+words uint64s: the
// low half of the k-mer's hash (what the owner probes from, so it is
// computed once per occurrence) with the left and right adjacent bases in
// the three bits above it and the three above those (0 when absent or
// ambiguous, else 2-bit code + 1), then the key words. A record is appended
// five words wide, the most it has, and the bin cut back to its stride.
func (t *Table) scan(seq []byte, bins [][]uint64) {
	k, stride := t.K, 1+t.words
	sc := kmer.NewScanner(k)
	for i, b := range seq {
		if !sc.Push(b) {
			continue
		}
		var left, right uint64
		if pos := i - k + 1; pos > 0 {
			if c, ok := dna.Code(seq[pos-1]); ok {
				left = uint64(c) + 1
			}
		}
		if i+1 < len(seq) {
			if c, ok := dna.Code(seq[i+1]); ok {
				right = uint64(c) + 1
			}
		}
		canon, isSelf := sc.Canonical()
		if !isSelf {
			// In the canonical orientation the preceding base becomes the
			// following base, complemented (and vice versa): code+1 maps to
			// (code^3)+1 = 5−(code+1), and 0 (absent) to 0.
			left, right = (5-right)%5, (5-left)%5
		}
		h := kmer.HashWords(canon.W[:t.words], 0)
		o, w := t.owner(h), &canon.W
		b := bins[o]
		bins[o] = append(b, h&0xffffffff|left<<32|right<<35, w[0], w[1], w[2], w[3])[:len(b)+stride]
	}
}

// drain adds a bin's occurrences to the partition.
func (p *partition) drain(bin []uint64) {
	stride := 1 + p.words
	for j := 0; j+stride <= len(bin); j += stride {
		meta := bin[j]
		rec := p.upsert(bin[j+1:j+stride], uint32(meta))
		rec[0]++
		l, r := meta>>32&7, meta>>35&7 // code+1 c ≥ 1: 1<<(8c)>>8 is byte c−1; 0 adds nothing
		rec[1] = addExt(rec[1], 1<<(8*l)>>8|1<<(8*r)>>8<<32)
	}
}
