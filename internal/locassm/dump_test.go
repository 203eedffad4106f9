package locassm

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestDumpLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	ctgs := randomWorkload(rng, 12)

	var buf bytes.Buffer
	if err := DumpWorkload(&buf, ctgs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ctgs) {
		t.Fatalf("got %d contigs, want %d", len(back), len(ctgs))
	}
	for i := range ctgs {
		if back[i].ID != ctgs[i].ID || !bytes.Equal(back[i].Seq, ctgs[i].Seq) {
			t.Fatalf("contig %d differs", i)
		}
		if len(back[i].LeftReads) != len(ctgs[i].LeftReads) ||
			len(back[i].RightReads) != len(ctgs[i].RightReads) {
			t.Fatalf("contig %d read counts differ", i)
		}
		for j := range ctgs[i].RightReads {
			if !bytes.Equal(back[i].RightReads[j].Seq, ctgs[i].RightReads[j].Seq) ||
				!bytes.Equal(back[i].RightReads[j].Qual, ctgs[i].RightReads[j].Qual) {
				t.Fatalf("contig %d read %d differs", i, j)
			}
		}
	}

	// A loaded workload must assemble identically.
	cfg := testConfig()
	a, err := RunCPU(ctgs, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCPU(back, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if !bytes.Equal(a.Results[i].RightExt, b.Results[i].RightExt) {
			t.Fatalf("contig %d: loaded workload assembles differently", i)
		}
	}
}

func TestDumpLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	ctgs := randomWorkload(rng, 5)
	path := filepath.Join(t.TempDir(), "workload.dump")
	if err := DumpWorkloadFile(path, ctgs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ctgs) {
		t.Fatalf("got %d contigs", len(back))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadWorkload(strings.NewReader("not a dump at all")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := DumpWorkload(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Truncated dump.
	full := buf.Bytes()
	if _, err := LoadWorkload(bytes.NewReader(full[:3])); err == nil {
		t.Error("truncated dump accepted")
	}
	back, err := LoadWorkload(bytes.NewReader(full))
	if err != nil || len(back) != 0 {
		t.Errorf("empty dump mishandled: %v %d", err, len(back))
	}
}

// FuzzLoadWorkload: any input yields an error or a workload that survives a
// dump and a reload unchanged, and a loader that preallocates nothing from
// the file's own words — a 40-byte dump claiming 2^40 contigs used to end the
// process with a fatal out-of-memory error.
func FuzzLoadWorkload(f *testing.F) {
	header := func(magic string, n int) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(magic); err != nil {
			f.Fatal(err)
		}
		if err := enc.Encode(n); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var valid bytes.Buffer
	if err := DumpWorkload(&valid, randomWorkload(rand.New(rand.NewSource(502)), 2)); err != nil {
		f.Fatal(err)
	}
	for _, in := range [][]byte{
		valid.Bytes(),
		{},                                 // empty input
		header("mhm2sim-lassm-dump-v0", 0), // bad magic
		header(dumpMagic, 1<<40),           // huge count
		header(dumpMagic, -1),              // negative count
		valid.Bytes()[:valid.Len()*2/3],    // truncated contig
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctgs, err := LoadWorkload(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// gob caps a slice's up-front allocation at a few MiB before it
		// has read the elements; the rest is proportional to the input.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20+64*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := DumpWorkload(&once, ctgs); err != nil {
			t.Fatal(err)
		}
		back, err := LoadWorkload(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reloading a dump of a loaded workload: %v", err)
		}
		if err := DumpWorkload(&twice, back); err != nil {
			t.Fatal(err)
		}
		if len(back) != len(ctgs) || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("%d contigs came back as %d, or dump differently", len(ctgs), len(back))
		}
	})
}
