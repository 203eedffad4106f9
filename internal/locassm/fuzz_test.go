package locassm

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
)

// FuzzFlatMatchesMapRef differentially checks the flat-table engine against
// the map reference over randomized contigs, reads, qualities (straddling
// the cutoff), ambiguous bases, and mer-ladder configurations. Run with
//
//	go test -fuzz FuzzFlatMatchesMapRef ./internal/locassm
//
// to explore beyond the seed corpus; the corpus itself runs under plain
// `go test` as a regression suite.
func FuzzFlatMatchesMapRef(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(8), uint8(30), uint8(0))
	f.Add(int64(2), uint8(90), uint8(14), uint8(60), uint8(10))
	f.Add(int64(3), uint8(10), uint8(2), uint8(200), uint8(50))
	f.Add(int64(4), uint8(255), uint8(30), uint8(15), uint8(100))
	f.Add(int64(5), uint8(0), uint8(0), uint8(0), uint8(255))

	ws := new(cpuWorkspace) // each input runs on the workspace the one before warmed
	f.Fuzz(func(t *testing.T, seed int64, ctgLen, nReads, readLen, ambig uint8) {
		rng := rand.New(rand.NewSource(seed))

		cfg := testConfig()
		cfg.MinMer = 5 + rng.Intn(8)
		cfg.MerStep = 1 + rng.Intn(4)
		cfg.MaxMer = cfg.MinMer + cfg.MerStep*rng.Intn(4)
		cfg.StartMer = cfg.MinMer + cfg.MerStep*rng.Intn(1+(cfg.MaxMer-cfg.MinMer)/cfg.MerStep)
		cfg.MaxWalkLen = 1 + rng.Intn(120)
		cfg.MaxIters = 1 + rng.Intn(10)
		cfg.MinViableScore = 1 + rng.Intn(5)
		cfg.QualCutoff = 10 + rng.Intn(20)

		// randBase sprinkles ambiguous bytes at a rate set by the fuzzed
		// ambig parameter: both engines must key and compare them alike.
		randBase := func() byte {
			if int(ambig) > 0 && rng.Intn(512) < int(ambig) {
				return 'N'
			}
			return dna.Alphabet[rng.Intn(4)]
		}

		seq := make([]byte, int(ctgLen))
		for i := range seq {
			seq[i] = randBase()
		}
		c := &CtgWithReads{ID: 1, Seq: seq}

		makeRead := func() dna.Read {
			l := int(readLen)
			if l > 150 { // stay within the engine's MaxReadLen regime
				l = 150
			}
			s := make([]byte, l)
			q := make([]byte, l)
			// Half the reads resample the contig tail (so walks go
			// somewhere), half are pure noise (so lookups miss).
			if len(seq) > 0 && rng.Intn(2) == 0 {
				start := rng.Intn(len(seq))
				for i := range s {
					if start+i < len(seq) {
						s[i] = seq[start+i]
					} else {
						s[i] = randBase()
					}
				}
			} else {
				for i := range s {
					s[i] = randBase()
				}
			}
			for i := range q {
				q[i] = dna.QualChar(rng.Intn(dna.MaxQual + 1))
			}
			return dna.Read{ID: "f", Seq: s, Qual: q}
		}
		for i := 0; i < int(nReads); i++ {
			if rng.Intn(2) == 0 {
				c.RightReads = append(c.RightReads, makeRead())
			} else {
				c.LeftReads = append(c.LeftReads, makeRead())
			}
		}

		var flatWC, refWC WorkCounts
		flat := extendContigCPU(ws, c, &cfg, &flatWC)
		ref := extendContigMapRef(c, &cfg, &refWC)

		if !bytes.Equal(flat.RightExt, ref.RightExt) || !bytes.Equal(flat.LeftExt, ref.LeftExt) {
			t.Fatalf("extensions diverge:\n flat L=%q R=%q\n  ref L=%q R=%q",
				flat.LeftExt, flat.RightExt, ref.LeftExt, ref.RightExt)
		}
		if flat.RightState != ref.RightState || flat.LeftState != ref.LeftState || flat.Iters != ref.Iters {
			t.Fatalf("states diverge: flat (%s,%s,%d) vs ref (%s,%s,%d)",
				flat.LeftState, flat.RightState, flat.Iters,
				ref.LeftState, ref.RightState, ref.Iters)
		}
		if flatWC != refWC {
			t.Fatalf("work counts diverge: flat %+v vs ref %+v", flatWC, refWC)
		}
	})
}

// FuzzDeviceMatchesCPU checks both device kernels (v1, v2) against RunCPU
// on fuzzed mer ladders and contigs whose reads and tails carry N,
// lower-case and IUPAC bytes: the impure k-mers the device keys by their
// raw bytes while every other k-mer is 2-bit packed. The device budget
// holds one or two items per side, so every run stages several batches.
// Seeds: shape 0 is all pure (rate 0); shape 1 ends each tail in an N that
// the reads over it carry too; shape 2 adds a lower-case copy of a read;
// shape 4 makes only the left reads impure, the ones staged
// reverse-complemented.
func FuzzDeviceMatchesCPU(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(2), uint8(0))
	f.Add(int64(4), uint8(0), uint8(40))
	f.Add(int64(5), uint8(3), uint8(200))
	f.Add(int64(6), uint8(4), uint8(6))

	f.Fuzz(func(t *testing.T, seed int64, shape, rate uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.MinMer = 5 + rng.Intn(30)
		cfg.MerStep = 1 + rng.Intn(8)
		cfg.MaxMer = min(cfg.MinMer+cfg.MerStep*rng.Intn(5), 70)
		cfg.StartMer = cfg.MinMer + cfg.MerStep*rng.Intn(1+(cfg.MaxMer-cfg.MinMer)/cfg.MerStep)
		cfg.MaxWalkLen = 1 + rng.Intn(150)
		cfg.MaxReadLen = 150
		// impure replaces a byte, at the fuzzed rate, with one the
		// device cannot pack.
		impure := func(s []byte) {
			for i := range s {
				if rng.Intn(512) < int(rate) {
					s[i] = "NnRYKMSWBDHVacgt"[rng.Intn(16)]
				}
			}
		}
		var ctgs []*CtgWithReads
		for id := 0; id < 2+rng.Intn(5); id++ {
			genome := make([]byte, 250+rng.Intn(250))
			for i := range genome {
				genome[i] = dna.Alphabet[rng.Intn(4)]
			}
			lo := 60 + rng.Intn(60)
			hi := len(genome) - 60 - rng.Intn(60)
			if shape == 1 {
				genome[hi-1] = 'N'
			}
			c := &CtgWithReads{ID: int64(id), Seq: append([]byte(nil), genome[lo:hi]...)}
			if shape != 4 {
				impure(c.Seq)
			}
			readLen := cfg.MaxMer + rng.Intn(150-cfg.MaxMer+1)
			for pos := 0; pos+readLen <= len(genome); pos += 5 + rng.Intn(20) {
				r := readFromString(string(genome[pos : pos+readLen]))
				if shape != 4 || pos < lo && pos+readLen > lo {
					impure(r.Seq)
				}
				for i := range r.Qual {
					r.Qual[i] = dna.QualChar(rng.Intn(dna.MaxQual + 1))
				}
				switch {
				case pos+readLen > hi && pos < hi:
					c.RightReads = append(c.RightReads, r)
				case pos < lo && pos+readLen > lo:
					c.LeftReads = append(c.LeftReads, r)
				}
			}
			if shape == 2 && len(c.RightReads) > 0 {
				lc := c.RightReads[0].Clone()
				lc.Seq = bytes.ToLower(lc.Seq)
				c.RightReads = append(c.RightReads, lc)
			}
			ctgs = append(ctgs, c)
		}

		cpu, err := RunCPU(ctgs, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(0)
		for _, left := range []bool{false, true} {
			for _, it := range buildSideItems(ctgs, &cfg, left) {
				budget = max(budget, planItem(it, &cfg).bytes())
			}
		}
		for _, v2 := range []bool{false, true} {
			dev := testDev()
			d, err := NewDriver(dev, GPUConfig{Config: cfg, WarpPerTable: v2, MemBudget: 3 * budget})
			if err != nil {
				t.Fatal(err)
			}
			gpu, err := d.Run(ctgs)
			dev.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i := range ctgs {
				c, g := cpu.Results[i], gpu.Results[i]
				if c.ID != g.ID || !bytes.Equal(c.LeftExt, g.LeftExt) || !bytes.Equal(c.RightExt, g.RightExt) ||
					c.LeftState != g.LeftState || c.RightState != g.RightState || c.Iters != g.Iters {
					t.Fatalf("v2=%v contig %d:\n cpu %+v\n gpu %+v", v2, i, c, g)
				}
			}
		}
	})
}
