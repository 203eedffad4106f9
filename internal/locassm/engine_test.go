package locassm

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/simt"
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
	if _, ok := eng.(*cpuEngine); !ok {
		t.Errorf("NewEngine(\"\") built a %T, want the cpu engine", eng)
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
		defer eng.Close()
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
	if st := stats[EngineMultiGPU]; st.Busy > clock.Machine(st.KernelTime+st.TransferTime) {
		t.Errorf("multigpu busy %v exceeds serialized total %v",
			st.Busy, st.KernelTime+st.TransferTime)
	}
}

// TestEngineDeviceSource: a device engine draws its devices from the spec's
// source — one for gpu, GPUs for multigpu — and leaves a supplied source's
// devices open and FreeAll'd; the default source's are closed by Close.
func TestEngineDeviceSource(t *testing.T) {
	ctgs := randomWorkload(rand.New(rand.NewSource(11)), 12)
	needsPool := func(dev *simt.Device) error {
		_, err := dev.Launch(simt.KernelConfig{Name: "probe", Warps: 2}, func(*simt.Warp) {})
		return err
	}
	for name, want := range map[string]int{EngineGPU: 1, EngineMultiGPU: 3} {
		var drawn []*simt.Device
		spec := EngineSpec{Name: name, Config: testConfig(), GPU: GPUConfig{WarpPerTable: true}, GPUs: 3,
			Devices: func() (*simt.Device, error) {
				drawn = append(drawn, testDev())
				return drawn[len(drawn)-1], nil
			}}
		eng, err := NewEngine(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := eng.Assemble(21, ctgs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng.Close()
		if len(drawn) != want {
			t.Errorf("%s drew %d devices, want %d", name, len(drawn), want)
		}
		for i, dev := range drawn {
			if h2d, _ := dev.CumTraffic(); h2d == 0 {
				t.Errorf("%s: supplied device %d moved no bytes", name, i)
			}
			if err := needsPool(dev); err != nil || dev.InUse() != 0 {
				t.Errorf("%s: supplied device %d after Close: launch %v, %d bytes in use", name, i, err, dev.InUse())
			}
			dev.Close()
		}
	}

	eng, err := NewEngine(EngineSpec{Name: EngineGPU, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Assemble(21, ctgs); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := needsPool(eng.(*gpuEngine).drv.Dev); !errors.Is(err, simt.ErrDeviceClosed) {
		t.Errorf("default source's device after Close: launch %v, want ErrDeviceClosed", err)
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

// TestCPUEngineOwnsWorkspaces: the cpu engine keeps its workspaces for its
// lifetime, so a round allocates the same bytes, within 1 KiB, whether or not
// two garbage collections (which empty a sync.Pool) fall before it
// (workspaces from a pool, rebuilt after them, took 483,520 bytes against
// 14,304); and two Assembles that run at once, which share them one after
// the other, return what one alone does.
func TestCPUEngineOwnsWorkspaces(t *testing.T) {
	ctgs := randomWorkload(rand.New(rand.NewSource(11)), 40)
	eng, err := NewEngine(EngineSpec{Config: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.Assemble(21, ctgs)
	if err != nil {
		t.Fatal(err)
	}
	// The fewest bytes of five rounds: what else the process runs can only add.
	round := func(gcs int) uint64 {
		least := ^uint64(0)
		var before, after runtime.MemStats
		for range 5 {
			for range gcs {
				runtime.GC()
			}
			runtime.ReadMemStats(&before)
			if _, _, err := eng.Assemble(21, ctgs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	quiet, collected := round(0), round(2)
	t.Logf("round: %d bytes, %d after two GCs", quiet, collected)
	if max(quiet, collected)-min(quiet, collected) > 1024 {
		t.Errorf("round allocated %d bytes, %d after two GCs; want within 1 KiB", quiet, collected)
	}

	var wg sync.WaitGroup
	got := make([][]Result, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _ = eng.Assemble(21, ctgs)
		}()
	}
	wg.Wait()
	for _, res := range got {
		for i := range want {
			if !bytes.Equal(res[i].RightExt, want[i].RightExt) || !bytes.Equal(res[i].LeftExt, want[i].LeftExt) {
				t.Fatalf("concurrent Assemble: result %d differs", i)
			}
		}
	}
}
