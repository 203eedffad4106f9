package locassm

import (
	"bytes"
	"math/rand"
	"testing"

	"mhm2sim/internal/simt"
)

// nodeDevs supplies a node's devices, closed when the test ends.
func nodeDevs(t *testing.T) func() (*simt.Device, error) {
	return func() (*simt.Device, error) {
		dev := testDev()
		t.Cleanup(dev.Close)
		return dev, nil
	}
}

func TestNodeDriverMatchesSingleGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	ctgs := randomWorkload(rng, 20)
	gcfg := GPUConfig{Config: testConfig(), WarpPerTable: true}

	single := newTestDriver(t, true, 0)
	want, err := single.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}

	nd, err := NewNodeDriver(6, nodeDevs(t), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nd.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctgs {
		if !bytes.Equal(want.Results[i].LeftExt, got.Results[i].LeftExt) ||
			!bytes.Equal(want.Results[i].RightExt, got.Results[i].RightExt) {
			t.Fatalf("ctg %d: sharded run changed the result", i)
		}
	}
	if got.NodeTime <= 0 {
		t.Error("node time not positive")
	}
}

func TestNodeDriverBalancesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(8081))
	// 24 similar contigs across 6 GPUs: each device should get ~4.
	var ctgs []*CtgWithReads
	for i := 0; i < 24; i++ {
		c, _ := makeCovered(rng, int64(i), 500, 150, 350, 70, 10)
		ctgs = append(ctgs, c)
	}
	nd, err := NewNodeDriver(6, nodeDevs(t), GPUConfig{Config: testConfig(), WarpPerTable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nd.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	for g, r := range res.PerGPU {
		if len(r.Results) < 2 || len(r.Results) > 6 {
			t.Errorf("GPU %d got %d contigs, want ~4", g, len(r.Results))
		}
	}
	// Node time faster than a single device doing everything.
	single := newTestDriver(t, true, 0)
	all, err := single.Run(ctgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeTime >= all.TotalTime() {
		t.Errorf("6 GPUs (%v) not faster than 1 (%v)", res.NodeTime, all.TotalTime())
	}
}

func TestNodeDriverValidation(t *testing.T) {
	if _, err := NewNodeDriver(0, nodeDevs(t), GPUConfig{Config: testConfig()}); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := NewNodeDriver(2, nodeDevs(t), GPUConfig{Config: Config{}}); err == nil {
		t.Error("invalid locassm config accepted")
	}
}

func TestNodeDriverEmptyWorkload(t *testing.T) {
	nd, err := NewNodeDriver(3, nodeDevs(t), GPUConfig{Config: testConfig(), WarpPerTable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nd.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 {
		t.Error("results from empty workload")
	}
}
