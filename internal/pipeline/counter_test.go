package pipeline

import (
	"bytes"
	"runtime"
	"testing"

	"mhm2sim/internal/dbg"
)

// TestSharedCounterAcrossRuns is two jobs on one daemon worker: two runs of
// one preset count in one Config.Counter, at workers 1 and then 2, and each
// writes the FASTA of a run without a Counter. The first run, on an empty
// Counter, allocates what a run without one does. The second allocates less
// than the first although it counts in twice the partitions: its partition 0
// counts in the array the first run's last round released (3,141,664 bytes),
// while partition 1 and the bins of a second worker are new. Its bound is
// the bytes measured (smallest of three) plus a tenth: 8,684,168, where a
// run at workers 2 without a Counter took 12,097,448 and the first run
// 11,546,472. Between the runs the Counter holds 4,571,944 live bytes: that
// array and the first run's bins.
func TestSharedCounterAcrossRuns(t *testing.T) {
	const measured = 8_684_168
	pairs := buildPairs(t)
	want := fastaOf(t, reference(t))
	run := func(workers int, ctr *dbg.Counter) uint64 {
		t.Helper()
		cfg := testPipelineConfig()
		cfg.Workers, cfg.Counter = workers, ctr
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(pairs, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fastaOf(t, res), want) {
			t.Fatalf("workers %d, Counter %v: FASTA differs from the run without a Counter", workers, ctr != nil)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties what sync.Pools kept through the first
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first, second, fresh := ^uint64(0), ^uint64(0), ^uint64(0)
	for range 3 {
		fresh = min(fresh, run(1, nil))
		ctr := new(dbg.Counter)
		base := live()
		first = min(first, run(1, ctr))
		t.Logf("the Counter holds %d live bytes between the runs", int64(live())-int64(base))
		second = min(second, run(2, ctr))
	}
	t.Logf("first run %d bytes, second %d, %d measured; without a Counter %d", first, second, uint64(measured), fresh)
	if first > fresh+fresh/100 {
		t.Errorf("the first run on an empty Counter allocated %d bytes, a run without one %d", first, fresh)
	}
	if second >= first {
		t.Errorf("the second run allocated %d bytes, the first %d: it counted in no released memory", second, first)
	}
	if bound := uint64(measured + measured/10); second > bound {
		t.Errorf("the second run allocated %d bytes, over the bound %d (measured %d plus a tenth)", second, bound, measured)
	}
}

// fastaOf is the FASTA a run writes.
func fastaOf(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFASTAOutputs(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
