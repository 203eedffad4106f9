package locassm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
)

// assertResultsMatch requires the flat-table engine's Result to be
// bit-identical to the map reference's: extensions, walk states, and iters.
func assertResultsMatch(t *testing.T, label string, flat, ref Result) {
	t.Helper()
	if flat.ID != ref.ID {
		t.Errorf("%s: ID %d vs %d", label, flat.ID, ref.ID)
	}
	if !bytes.Equal(flat.RightExt, ref.RightExt) {
		t.Errorf("%s: right ext differs:\n flat %q (%s)\n  ref %q (%s)",
			label, flat.RightExt, flat.RightState, ref.RightExt, ref.RightState)
	}
	if !bytes.Equal(flat.LeftExt, ref.LeftExt) {
		t.Errorf("%s: left ext differs:\n flat %q (%s)\n  ref %q (%s)",
			label, flat.LeftExt, flat.LeftState, ref.LeftExt, ref.LeftState)
	}
	if flat.RightState != ref.RightState {
		t.Errorf("%s: right state %s vs %s", label, flat.RightState, ref.RightState)
	}
	if flat.LeftState != ref.LeftState {
		t.Errorf("%s: left state %s vs %s", label, flat.LeftState, ref.LeftState)
	}
	if flat.Iters != ref.Iters {
		t.Errorf("%s: iters %d vs %d", label, flat.Iters, ref.Iters)
	}
}

// diffWorkspace is the workspace every diffOne call runs on, so each
// contig meets one that earlier contigs warmed.
var diffWorkspace = new(cpuWorkspace)

// diffOne runs one contig through both engines and compares Result and
// WorkCounts bit for bit.
func diffOne(t *testing.T, label string, c *CtgWithReads, cfg Config) {
	t.Helper()
	var flatWC, refWC WorkCounts
	flat := extendContigCPU(diffWorkspace, c, &cfg, &flatWC)
	ref := extendContigMapRef(c, &cfg, &refWC)
	assertResultsMatch(t, label, flat, ref)
	if flatWC != refWC {
		t.Errorf("%s: work counts differ: flat %+v, ref %+v", label, flatWC, refWC)
	}
}

// TestFlatMatchesMapTargeted pins the engine to the reference on the walk
// terminations that matter: dead ends, forks, loops, max-length walks, and
// a contig too short to walk at all.
func TestFlatMatchesMapTargeted(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(7))

	// Dead end: covered contig whose reads stop — the walk runs out of
	// evidence at the read frontier.
	c, _ := makeCovered(rng, 1, 600, 150, 330, 80, 12)
	diffOne(t, "dead-end", c, cfg)

	// Fork: two read populations diverging right after the contig end.
	genome := make([]byte, 400)
	for i := range genome {
		genome[i] = dna.Alphabet[rng.Intn(4)]
	}
	fork := &CtgWithReads{ID: 2, Seq: append([]byte(nil), genome[100:200]...)}
	altA := append(append([]byte(nil), genome[160:200]...), []byte("ACCAGGTTACCAGGTTACCAGGTT")...)
	altB := append(append([]byte(nil), genome[160:200]...), []byte("TGGTCCAATGGTCCAATGGTCCAA")...)
	for i := 0; i < 6; i++ {
		fork.RightReads = append(fork.RightReads, readFromString(string(altA)))
		fork.RightReads = append(fork.RightReads, readFromString(string(altB)))
	}
	diffOne(t, "fork", fork, cfg)

	// Loop: reads that tile a tandem repeat, so the walk revisits a mer.
	unit := "ACGTTGCAGGTCAATCCGGA"
	repeat := []byte(unit + unit + unit + unit + unit)
	loop := &CtgWithReads{ID: 3, Seq: repeat[:45]}
	for off := 0; off+40 <= len(repeat); off += 5 {
		loop.RightReads = append(loop.RightReads, readFromString(string(repeat[off:off+40])))
	}
	diffOne(t, "loop", loop, cfg)

	// Max length: dense tiling over a long genome with a tiny walk cap.
	short := cfg
	short.MaxWalkLen = 25
	c2, _ := makeCovered(rng, 4, 800, 100, 300, 100, 7)
	diffOne(t, "max-len", c2, short)

	// Contig shorter than MinMer: no walk at all.
	tiny := &CtgWithReads{ID: 5, Seq: []byte("ACGTACG"),
		RightReads: []dna.Read{readFromString("ACGTACGTACGTACGT")}}
	diffOne(t, "short-contig", tiny, cfg)
}

// TestFlatMatchesMapAmbiguous feeds both engines ambiguous bases — in the
// contig tail (so early walk cursors hold 'N') and inside reads (so table
// keys hold 'N') — including a periodic N-bearing tail whose early windows
// can collide. The map reference keys on raw strings, so the flat engine
// must distinguish and equate N-bearing windows exactly the same way.
func TestFlatMatchesMapAmbiguous(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(11))

	c, _ := makeCovered(rng, 1, 600, 150, 330, 80, 10)
	seqN := append([]byte(nil), c.Seq...)
	seqN[len(seqN)-5] = 'N'
	seqN[len(seqN)-13] = 'N'
	cN := &CtgWithReads{ID: 1, Seq: seqN, RightReads: c.RightReads, LeftReads: c.LeftReads}
	diffOne(t, "N-in-tail", cN, cfg)

	readsN := make([]dna.Read, len(c.RightReads))
	for i := range c.RightReads {
		readsN[i] = c.RightReads[i].Clone()
		readsN[i].Seq[rng.Intn(len(readsN[i].Seq))] = 'N'
	}
	cRN := &CtgWithReads{ID: 2, Seq: c.Seq, RightReads: readsN}
	diffOne(t, "N-in-reads", cRN, cfg)

	// Periodic ambiguous tail: byte-equal N-bearing windows must still be
	// detected as revisits/equal keys.
	periodic := bytes.Repeat([]byte("NA"), 30)
	cP := &CtgWithReads{ID: 3, Seq: periodic,
		RightReads: []dna.Read{readFromString(string(bytes.Repeat([]byte("NA"), 40)))}}
	// High-quality 'N'-bearing reads: Code('N') fails, so evidence counts
	// skip ambiguous followers exactly like the reference.
	diffOne(t, "periodic-N", cP, cfg)
}

// TestFlatMatchesMapRandom sweeps random mixed workloads (covered contigs,
// forks via truncated coverage, no-read contigs, short contigs) across
// seeds and config variants.
func TestFlatMatchesMapRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		cfg := testConfig()
		cfg.MaxWalkLen = 20 + rng.Intn(300)
		cfg.MerStep = 1 + rng.Intn(4)
		cfg.MinViableScore = 1 + rng.Intn(4)
		ctgs := randomWorkload(rng, 12)
		for i, c := range ctgs {
			diffOne(t, fmt.Sprintf("seed %d ctg %d", seed, i), c, cfg)
		}
	}
}

// TestRunCPUMatchesMapRef checks the fanned-out public entry point end to
// end: per-contig Results in input order and total WorkCounts equal the
// serial map reference.
func TestRunCPUMatchesMapRef(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := testConfig()
	ctgs := randomWorkload(rng, 30)

	res, err := RunCPU(ctgs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var refCounts WorkCounts
	for i, c := range ctgs {
		ref := extendContigMapRef(c, &cfg, &refCounts)
		assertResultsMatch(t, fmt.Sprintf("ctg %d", i), res.Results[i], ref)
	}
	if res.Counts != refCounts {
		t.Errorf("total work counts differ: flat %+v, ref %+v", res.Counts, refCounts)
	}
}

// lowQualCovered builds a covered contig whose read qualities all sit below
// the cutoff: the engine builds every table of the mer ladder and probes the
// walk, but DecideExt never finds a high-quality vote, so no extension (and
// no Result allocation) is ever produced. This isolates the engine
// machinery for the allocation test.
func lowQualCovered(rng *rand.Rand) *CtgWithReads {
	c, _ := makeCovered(rng, 1, 600, 150, 330, 80, 10)
	for i := range c.RightReads {
		for j := range c.RightReads[i].Qual {
			c.RightReads[i].Qual[j] = dna.QualChar(5)
		}
	}
	for i := range c.LeftReads {
		for j := range c.LeftReads[i].Qual {
			c.LeftReads[i].Qual[j] = dna.QualChar(5)
		}
	}
	return c
}

// TestExtendContigZeroAlloc is the allocation regression gate: with a warm
// workspace, extendContigCPU performs zero steady-state heap allocations
// per contig — table builds, walks, visited probes, mer shifts, and both
// reverse-complement arenas all run out of recycled scratch.
func TestExtendContigZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := testConfig()
	c := lowQualCovered(rng)
	ws := new(cpuWorkspace)
	var wc WorkCounts
	extendContigCPU(ws, c, &cfg, &wc) // warm the workspace high-water marks

	var probe WorkCounts
	allocs := testing.AllocsPerRun(100, func() {
		extendContigCPU(ws, c, &cfg, &probe)
	})
	if allocs != 0 {
		t.Errorf("extendContigCPU allocates %.1f objects per contig, want 0", allocs)
	}
	if probe.TableBuilds == 0 || probe.KmersInserted == 0 || probe.Lookups == 0 {
		t.Fatalf("machinery did not run: %+v", probe)
	}
}

// TestExtendContigResultOnlyAllocs: on a contig that extends on both sides,
// the only steady-state allocations are the two Result extension slices the
// caller keeps.
func TestExtendContigResultOnlyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := testConfig()
	c, _ := makeCovered(rng, 1, 700, 200, 400, 90, 9)
	ws := new(cpuWorkspace)
	var wc WorkCounts
	r := extendContigCPU(ws, c, &cfg, &wc)
	if len(r.RightExt) == 0 || len(r.LeftExt) == 0 {
		t.Fatalf("workload does not extend both sides: %d/%d bases", len(r.LeftExt), len(r.RightExt))
	}

	allocs := testing.AllocsPerRun(100, func() {
		extendContigCPU(ws, c, &cfg, &wc)
	})
	if allocs > 2 {
		t.Errorf("extendContigCPU allocates %.1f objects per extending contig, want ≤ 2 (the Result slices)", allocs)
	}
}
