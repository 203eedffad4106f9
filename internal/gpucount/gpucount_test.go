package gpucount

import (
	"errors"
	"math/rand"
	"testing"

	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/simt"
)

func testDev() *simt.Device {
	cfg := simt.V100()
	cfg.GlobalMemBytes = 1 << 26
	return simt.NewDevice(cfg)
}

func randReads(rng *rand.Rand, n, l int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, l)
		for j := range out[i] {
			out[i][j] = dna.Alphabet[rng.Intn(4)]
		}
	}
	return out
}

// refTable builds the reference with the CPU dbg implementation, keyed the
// same way (canonical packed word).
func refTable(t *testing.T, seqs [][]byte, k int) map[uint64]*dbg.Info {
	t.Helper()
	tab, err := dbg.Count(seqs, dbg.Config{K: k, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]*dbg.Info{}
	seen := map[uint64]bool{}
	for _, s := range seqs {
		kmer.ForEach(s, k, func(pos int, km kmer.Kmer) {
			canon, _ := km.Canonical(k)
			if seen[canon.W[0]] {
				return
			}
			seen[canon.W[0]] = true
			info, _, ok := tab.Lookup(km)
			if !ok {
				t.Fatalf("reference lookup failed at %d", pos)
			}
			ref[canon.W[0]] = &info
		})
	}
	return ref
}

func TestGPUCountMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{5, 17, 21, 31, 32} {
		seqs := randReads(rng, 30, 90)
		got, res, err := Count(testDev(), seqs, k)
		if err != nil {
			t.Fatal(err)
		}
		want := refTable(t, seqs, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d distinct k-mers, want %d", k, len(got), len(want))
		}
		for key, w := range want {
			g := got[key]
			if g == nil {
				t.Fatalf("k=%d: canonical k-mer missing", k)
			}
			if g.Count != w.Count || g.Left != w.Left || g.Right != w.Right {
				t.Fatalf("k=%d: info mismatch: %+v vs %+v", k, g, w)
			}
		}
		if res.TotalWarpInstrs() == 0 || res.Time <= 0 {
			t.Error("kernel accounting missing")
		}
	}
}

func TestGPUCountDeepCoverage(t *testing.T) {
	// Repeated identical reads: counts accumulate, extension evidence too.
	seqs := [][]byte{}
	read := []byte("ACGGTTCAACGGATCCGTAGGATCAAGGTT")
	for i := 0; i < 20; i++ {
		seqs = append(seqs, read)
	}
	got, _, err := Count(testDev(), seqs, 21)
	if err != nil {
		t.Fatal(err)
	}
	for key, info := range got {
		if info.Count != 20 {
			t.Errorf("k-mer %x count %d, want 20", key, info.Count)
		}
	}
}

func TestGPUCountValidation(t *testing.T) {
	if _, _, err := Count(testDev(), nil, 2); err == nil {
		t.Error("k=2 accepted")
	}
	if _, _, err := Count(testDev(), nil, 40); err == nil {
		t.Error("k>32 accepted")
	}
}

func TestGPUCountEmptyAndShort(t *testing.T) {
	got, _, err := Count(testDev(), [][]byte{[]byte("ACGT")}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("short read produced k-mers")
	}
}

func BenchmarkGPUCountK21(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	seqs := randReads(rng, 100, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Count(testDev(), seqs, 21); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountBatchTableFullReturnsError drives Count's kernel against a 1-slot
// table with distinct k-mers: the old panic("gpucount: table full") path
// must now surface gpuht.ErrTableFull through the kernel error sink.
func TestCountBatchTableFullReturnsError(t *testing.T) {
	d := testDev()
	k := 4
	st, err := stageReads(d, [][]byte{[]byte("ACGTGCAT")}, k) // plenty of distinct canonical 4-mers
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.Malloc(entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTable(base, 1, 1)

	var kernErr error
	if _, err = d.Launch(simt.KernelConfig{Name: "clear", Warps: 1}, func(w *simt.Warp) {
		clearWords(w, tab.base, tab.slots*entryBytes/8, 1)
	}); err != nil {
		t.Fatal(err)
	}
	_, err = d.Launch(simt.KernelConfig{
		Name: "tiny", Warps: 1,
		Commit: tab.committer(&kernErr),
	}, st.countKernel(tab.slots))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(kernErr, gpuht.ErrTableFull) {
		t.Fatalf("1-slot table returned %v, want gpuht.ErrTableFull", kernErr)
	}
}
