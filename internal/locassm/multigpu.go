package locassm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/simt"
)

// NodeDriver drives the local assembly of one Summit-like node: the
// workload is sharded across the node's GPUs (6 on Summit, §4.1) by a
// greedy balance on candidate-read counts — the driver-side
// device-to-rank mapping of Fig 11 — and the devices run concurrently, so
// the node's model time is the slowest device's.
type NodeDriver struct {
	Drivers []*Driver
}

// NewNodeDriver draws the node's devices from draw (they stay their
// supplier's) and creates one driver per device with a shared configuration.
func NewNodeDriver(gpus int, draw func() (*simt.Device, error), cfg GPUConfig) (*NodeDriver, error) {
	if gpus < 1 {
		return nil, fmt.Errorf("locassm: need at least one GPU, got %d", gpus)
	}
	nd := &NodeDriver{}
	for i := 0; i < gpus; i++ {
		dev, err := draw()
		if err != nil {
			return nil, err
		}
		drv, err := NewDriver(dev, cfg)
		if err != nil {
			return nil, err
		}
		nd.Drivers = append(nd.Drivers, drv)
	}
	return nd, nil
}

// NodeResult is a multi-GPU run outcome.
type NodeResult struct {
	Results []Result
	// PerGPU holds each device's own result (kernel stats, model times).
	PerGPU []*GPUResult
	// NodeTime is the modeled node wall time: max over devices.
	NodeTime clock.Device
}

// Run shards the contigs over the devices and executes them concurrently.
// Sharding is deterministic: contigs sorted by descending candidate-read
// count are dealt to the currently lightest device (longest-processing-
// time-first), the standard balance heuristic.
func (nd *NodeDriver) Run(ctgs []*CtgWithReads) (*NodeResult, error) {
	n := len(nd.Drivers)
	shards := make([][]*CtgWithReads, n)
	shardIdx := make([][]int, n)
	load := make([]int, n)

	order := make([]int, len(ctgs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(ctgs[b].NumReads(), ctgs[a].NumReads()) // descending
	})
	for _, idx := range order {
		g := 0
		for d := 1; d < n; d++ {
			if load[d] < load[g] {
				g = d
			}
		}
		shards[g] = append(shards[g], ctgs[idx])
		shardIdx[g] = append(shardIdx[g], idx)
		load[g] += ctgs[idx].NumReads() + 1
	}

	out := &NodeResult{
		Results: make([]Result, len(ctgs)),
		PerGPU:  make([]*GPUResult, n),
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func(g int) {
			defer wg.Done()
			out.PerGPU[g], errs[g] = nd.Drivers[g].Run(shards[g])
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for g := 0; g < n; g++ {
		for i, idx := range shardIdx[g] {
			out.Results[idx] = out.PerGPU[g].Results[i]
		}
		if t := out.PerGPU[g].TotalTime(); t > out.NodeTime {
			out.NodeTime = t
		}
	}
	return out, nil
}
