package locassm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// cloneCtgs deep-copies a workload so one engine's run cannot leak state
// into the next (engines must not mutate ctgs, and the test verifies it).
func cloneCtgs(ctgs []*CtgWithReads) []*CtgWithReads {
	out := make([]*CtgWithReads, len(ctgs))
	for i, c := range ctgs {
		cc := *c
		cc.Seq = append([]byte(nil), c.Seq...)
		out[i] = &cc
	}
	return out
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := NewEngine(EngineSpec{Name: "teleport"}); err == nil {
		t.Fatal("unknown engine accepted")
	} else if !strings.Contains(err.Error(), "teleport") {
		t.Errorf("error does not name the engine: %v", err)
	}
}

// TestNewEngineOneWalkConfig: the walk config has one path, spec.Config; a
// different one under spec.GPU is an error, not a silently dead setting.
func TestNewEngineOneWalkConfig(t *testing.T) {
	other := testConfig()
	other.MaxWalkLen++
	for _, name := range []string{EngineCPU, EngineGPU} {
		if _, err := NewEngine(EngineSpec{Name: name, Config: testConfig(), GPU: GPUConfig{Config: other}}); err == nil {
			t.Errorf("%s: a GPU.Config different from Config was accepted", name)
		}
		if _, err := NewEngine(EngineSpec{Name: name, Config: testConfig(), GPU: GPUConfig{Config: testConfig()}}); err != nil {
			t.Errorf("%s: an equal GPU.Config was rejected: %v", name, err)
		}
	}
}

// TestNewEngineDefaultIsCPU: an unnamed spec resolves to the host engine,
// and the retired "auto" alias is an unknown engine.
func TestNewEngineDefaultIsCPU(t *testing.T) {
	eng, err := NewEngine(EngineSpec{Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != EngineCPU {
		t.Errorf("NewEngine(\"\").Name() = %q, want cpu", eng.Name())
	}
	if _, err := NewEngine(EngineSpec{Name: "auto", Config: testConfig()}); err == nil {
		t.Error(`NewEngine("auto") accepted`)
	}
}

// TestNewEngineInstanceWins: a pre-built Instance bypasses the registry.
func TestNewEngineInstanceWins(t *testing.T) {
	inst, err := NewEngine(EngineSpec{Name: EngineCPU, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(EngineSpec{Name: "not-registered", Instance: inst})
	if err != nil || got != inst {
		t.Fatalf("Instance not returned as-is (err %v)", err)
	}
}

// TestEnginesBitIdentical is the registry-level parity check: cpu, gpu,
// and multigpu engines produce bit-identical Results on a mixed random
// workload, without mutating their input, and fill the Stats fields their
// substrate implies.
func TestEnginesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomWorkload(rng, 40)

	specs := map[string]EngineSpec{
		EngineCPU: {Name: EngineCPU, Config: testConfig(), Workers: 3},
		EngineGPU: {Name: EngineGPU, Config: testConfig(),
			GPU: GPUConfig{WarpPerTable: true}, Device: testDev()},
		EngineMultiGPU: {Name: EngineMultiGPU, Config: testConfig(),
			GPU: GPUConfig{WarpPerTable: true}, GPUs: 3},
	}

	results := map[string][]Result{}
	stats := map[string]Stats{}
	for name, spec := range specs {
		eng, err := NewEngine(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("%s: Name() = %q", name, eng.Name())
		}
		ctgs := cloneCtgs(base)
		res, st, err := eng.Assemble(21, ctgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) != len(base) {
			t.Fatalf("%s: %d results for %d contigs", name, len(res), len(base))
		}
		for i := range ctgs {
			if !bytes.Equal(ctgs[i].Seq, base[i].Seq) {
				t.Fatalf("%s: engine mutated ctgs[%d].Seq", name, i)
			}
		}
		results[name] = res
		stats[name] = st
	}

	ref := results[EngineCPU]
	for name, res := range results {
		for i := range ref {
			if !bytes.Equal(ref[i].RightExt, res[i].RightExt) ||
				!bytes.Equal(ref[i].LeftExt, res[i].LeftExt) ||
				ref[i].Iters != res[i].Iters {
				t.Fatalf("%s: result %d differs from cpu engine", name, i)
			}
		}
	}

	if st := stats[EngineCPU]; st.Counts.KmersInserted == 0 || st.Busy <= 0 || len(st.Kernels) != 0 {
		t.Errorf("cpu stats wrong shape: %+v", st)
	}
	for _, name := range []string{EngineGPU, EngineMultiGPU} {
		if st := stats[name]; len(st.Kernels) == 0 || st.KernelTime <= 0 || st.Busy <= 0 {
			t.Errorf("%s stats wrong shape: kernels=%d kernelTime=%v busy=%v",
				name, len(st.Kernels), st.KernelTime, st.Busy)
		}
	}
	// Devices overlap on a node: busy time is the slowest device, which
	// cannot exceed the serialized kernel+transfer total.
	if st := stats[EngineMultiGPU]; st.Busy > st.KernelTime+st.TransferTime {
		t.Errorf("multigpu busy %v exceeds serialized total %v",
			st.Busy, st.KernelTime+st.TransferTime)
	}
}

// TestStatsAdd: accumulation covers every field.
func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{Counts: WorkCounts{KmersInserted: 2}, KernelTime: 3, TransferTime: 4,
		Busy: 5, Resplits: 6, Batches: 7})
	s.Add(Stats{Counts: WorkCounts{KmersInserted: 1}, KernelTime: 1, TransferTime: 1,
		Busy: 1, Resplits: 1, Batches: 1})
	if s.Counts.KmersInserted != 3 || s.KernelTime != 4 || s.TransferTime != 5 ||
		s.Busy != 6 || s.Resplits != 7 || s.Batches != 8 {
		t.Errorf("Stats.Add wrong: %+v", s)
	}
}
