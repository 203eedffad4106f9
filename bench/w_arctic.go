package main

import (
	"fmt"
	"time"

	"mhm2sim/internal/align"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dist"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpualign"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/murmur"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/preprocess"
	"mhm2sim/internal/simt"
)

// runArctic is the default user path: interleaved FASTQ in, FASTA and JSON
// report out, cpu engine, k = 21, 33, 55.
func runArctic(r *run) error {
	var in *input
	if err := r.timeSetup(func() (err error) {
		in, err = communities[wArctic].build(r.seed)
		return err
	}, nil); err != nil {
		return err
	}
	if err := r.useInput(in, wArctic+".fastq"); err != nil {
		return err
	}
	cfg := r.pipelineConfig(21, 33, 55)
	var last assembly
	op := r.assembleOp(in.fastq, "pipeline.run", &last,
		func(pairs []dna.PairedRead, obs pipeline.Observer) (*pipeline.Result, *dist.Report, error) {
			c := cfg
			c.Observer = obs
			res, err := pipeline.Run(pairs, c)
			return res, nil, err
		})
	// No second implementation to compare with on this path: the warm-up
	// op's digest is the expectation for all the others.
	r.measure(op, "")
	if last.res == nil {
		return fmt.Errorf("no op completed")
	}
	if err := r.assemblyQuality(&last, in); err != nil {
		return err
	}
	if r.trace {
		return arcticProbes(r, in, &last, cfg)
	}
	return nil
}

// useInput records the input's size and checks its pin.
func (r *run) useInput(in *input, key string) error {
	r.pairs, r.bases, r.sha = in.pairs, in.bases, sha(in.fastq)
	return checkPin(r.seed, key, r.sha)
}

// probe times fn under a span of the "probes" op and returns seconds. The
// first failing probe is kept in r.probeErr and the probes after it are
// skipped, so a probe sequence checks for an error once, at its end.
func (r *run) probe(name string, fn func() error) float64 {
	if r.probeErr != nil {
		return 1
	}
	s, err := r.rec.do(name, "probes", -1, func(int) error { return fn() })
	if err != nil {
		r.probeErr = fmt.Errorf("probe %s: %w", name, err)
	}
	return s
}

// arcticProbes times direct calls into the host-side layers on the inputs
// this workload captured: the reads of the FASTQ and the contigs of the
// last assembly.
func arcticProbes(r *run, in *input, last *assembly, cfg pipeline.Config) error {
	pairs, seqs, err := in.reads()
	if err != nil {
		return err
	}
	var totalBytes int
	for _, s := range seqs {
		totalBytes += len(s)
	}

	// kmer: the extraction loops the pipeline's k-mer consumers run.
	var sink uint64
	for _, k := range []int{21, 55} {
		n := 0
		s := r.probe(fmt.Sprintf("kmer.foreach_k%d", k), func() error {
			for _, seq := range seqs {
				kmer.ForEach(seq, k, func(_ int, km kmer.Kmer) {
					c, _ := km.Canonical(k)
					sink += c.W[0]
					n++
				})
			}
			return nil
		})
		r.set(fmt.Sprintf("kmer.foreach_k%d_mkmers_per_s", k), float64(n)/s/1e6)
	}
	{
		const k = 33
		n := 0
		s := r.probe("kmer.frombytes_revcomp_k33", func() error {
			for _, seq := range seqs {
				for i := 0; i+k <= len(seq); i++ {
					if km, ok := kmer.FromBytes(seq[i:i+k], k); ok {
						sink += km.RevComp(k).W[0]
						n++
					}
				}
			}
			return nil
		})
		r.set("kmer.frombytes_revcomp_k33_mkmers_per_s", float64(n)/s/1e6)
	}

	// dbg: counting, traversal, and the component pass.
	var table21 *dbg.Table
	for _, k := range []int{21, 55} {
		dcfg := dbg.Config{K: k, MinCount: cfg.MinCount, Workers: r.workers, MinCtgLen: k + 10}
		var table *dbg.Table
		s := r.probe(fmt.Sprintf("dbg.count_k%d", k), func() (err error) {
			table, err = dbg.Count(seqs, dcfg)
			return err
		})
		r.set(fmt.Sprintf("dbg.count_k%d_s", k), s)
		if k == 21 {
			table21 = table
			r.set("dbg.count_mkmers_per_s", float64(totalBytes-len(seqs)*(k-1))/s/1e6)
		}
	}
	if r.probeErr != nil {
		return r.probeErr
	}
	table21.Filter(cfg.MinCount)
	r.set("dbg.distinct_kmers", float64(table21.Len()))
	s := r.probe("dbg.contigs", func() error {
		sink += uint64(len(table21.Contigs(dbg.Config{K: 21, MinCount: cfg.MinCount, Workers: r.workers, MinCtgLen: 31})))
		return nil
	})
	r.set("dbg.contigs_s", s)
	// The component pass as dist's component sharding runs it: contigs
	// joined by shared candidate reads and by (k−1)-base end windows.
	s = r.probe("dbg.components", func() error {
		b := dbg.NewComponentBuilder()
		const w = 54
		for _, c := range last.res.LAWorkload {
			b.Add(c.ID)
			for _, rd := range c.LeftReads {
				b.Link(c.ID, murmur.Hash64A([]byte(rd.ID), 1))
			}
			for _, rd := range c.RightReads {
				b.Link(c.ID, murmur.Hash64A([]byte(rd.ID), 1))
			}
			if len(c.Seq) >= w {
				b.Link(c.ID, murmur.Hash64A(c.Seq[:w], 2))
				b.Link(c.ID, murmur.Hash64A(c.Seq[len(c.Seq)-w:], 2))
			}
		}
		sink += uint64(b.NumComponents())
		return nil
	})
	r.set("dbg.components_s", s)

	// align: index, whole-read alignment, and the SW kernel alone.
	ctgSeqs := make([][]byte, len(last.res.Contigs))
	for i := range last.res.Contigs {
		ctgSeqs[i] = last.res.Contigs[i].Seq
	}
	var aln *align.Aligner
	s = r.probe("align.index_build", func() (err error) {
		aln, err = align.New(ctgSeqs, cfg.Align)
		return err
	})
	r.set("align.index_build_s", s)
	if r.probeErr != nil {
		return r.probeErr
	}
	hits := 0
	s = r.probe("align.reads", func() error {
		for _, seq := range seqs {
			if _, ok := aln.AlignRead(seq); ok {
				hits++
			}
		}
		return nil
	})
	r.set("align.reads_per_s", float64(len(seqs))/s)
	r.set("align.hit_frac", float64(hits)/float64(len(seqs)))
	r.set("align.sw_cells", float64(aln.Cells()))

	// The seed tasks of the forward strand feed both SW implementations.
	var tasks []gpualign.Task
	const slack = 8
	band := aln.Band()
	for _, seq := range seqs {
		t, ok := aln.SeedOriented(seq, false)
		if !ok {
			continue
		}
		ctg := ctgSeqs[t.CtgID]
		lo, hi := t.Shift-band-slack, t.Shift+len(seq)+band+slack
		if lo < 0 {
			lo = 0
		}
		if hi > len(ctg) {
			hi = len(ctg)
		}
		if hi > lo {
			tasks = append(tasks, gpualign.Task{Q: seq, T: ctg[lo:hi], Shift: t.Shift - lo})
		}
	}
	var cells int64
	s = r.probe("align.sw", func() error {
		for _, t := range tasks {
			cells += align.BandedSW(t.Q, t.T, t.Shift, band, aln.ScoringParams()).Cells
		}
		return nil
	})
	r.set("align.sw_mcells_per_s", float64(cells)/s/1e6)

	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	var kres simt.KernelResult
	s = r.probe("gpualign.batch", func() (err error) {
		_, kres, err = gpualign.BatchSW(dev, tasks, band, aln.ScoringParams())
		return err
	})
	r.set("gpualign.batch_host_s", s)
	r.set("gpualign.batch_model_s", kres.Time.Seconds())
	r.set("gpualign.warp_instrs", float64(kres.TotalWarpInstrs()))

	// murmur over read-sized buffers, repeated until the timing is coarse
	// enough to read (the reads alone hash in about a millisecond).
	hashed := 0
	s = r.probe("murmur.hash64", func() error {
		for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
			for _, seq := range seqs {
				sink += murmur.Hash64A(seq, 0x9e3779b97f4a7c15)
			}
			hashed += totalBytes
		}
		return nil
	})
	r.set("murmur.hash64_mb_per_s", float64(hashed)/s/1e6)

	s = r.probe("preprocess.run", func() error {
		cp := append([]dna.PairedRead(nil), pairs...)
		_, _, err := preprocess.Run(cp, preprocess.DefaultConfig())
		return err
	})
	r.set("preprocess.run_mreads_per_s", float64(2*len(pairs))/s/1e6)
	if sink == 42 {
		r.logf("sink %d", sink) // keeps the probe loops' results live
	}
	return r.probeErr
}
