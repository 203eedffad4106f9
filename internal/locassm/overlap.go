package locassm

import (
	"time"

	"mhm2sim/internal/par"
)

// This file implements the §4.3 / Fig 11 integration schedule: after
// binning, the third bin (contigs with the most candidate reads) is
// offloaded to the GPU first — launched from a separate thread so control
// returns to the CPU — while the CPU works through bin 2. When the GPU
// returns, whatever remains of bin 2 is offloaded too. Bin 3 goes first
// because GPUs fare better with more work per launch (latency hiding).

// OverlapResult is the outcome of the Fig 11 schedule.
type OverlapResult struct {
	Results []Result

	// GPU merges the bin-3 run and the bin-2 remainder run.
	GPU *GPUResult
	// CPUCounts is the work the CPU did on bin 2 during the overlap.
	CPUCounts WorkCounts
	// CPUContigs counts bin-2 contigs the CPU finished before the GPU
	// returned; the rest of bin 2 was offloaded.
	CPUContigs int
	// ModelTime is the schedule's modeled wall time:
	// max(GPU bin-3, CPU bin-2 overlap) + GPU bin-2 remainder.
	ModelTime time.Duration
}

// RunOverlapped executes local assembly with the Fig 11 schedule. Results
// are bit-identical to Run/RunCPU (the schedule only changes who computes
// what); cost over cpuWorkers cores decides the CPU/GPU split of bin 2.
func (d *Driver) RunOverlapped(ctgs []*CtgWithReads, cost CPUCost, cpuWorkers int) (*OverlapResult, error) {
	cpuTime := func(wc WorkCounts) time.Duration { return cost.Time(wc, cpuWorkers) }
	bins := MakeBins(ctgs, DefaultSmallLimit)

	out := &OverlapResult{Results: make([]Result, len(ctgs))}
	index := make(map[*CtgWithReads]int, len(ctgs))
	for i, c := range ctgs {
		index[c] = i
		out.Results[i].ID = c.ID
	}
	place := func(set []*CtgWithReads, results []Result) {
		for i, c := range set {
			out.Results[index[c]] = results[i]
		}
	}

	// Bin 3 goes to the GPU first (launched on its own thread in the real
	// driver; here its model time defines the overlap window).
	gpu3, err := d.Run(bins.Large)
	if err != nil {
		return nil, err
	}
	place(bins.Large, gpu3.Results)
	window := gpu3.TotalTime()

	// The CPU walks bin 2 until the window is spent. Contigs are extended
	// in chunks so the worker fan-out cost is paid once per chunk rather
	// than once per contig, but the take/stop decision is replayed contig
	// by contig over the chunk's per-contig counts — the split (and every
	// result) is bit-identical to the one-at-a-time schedule. Work past the
	// cutoff inside the final chunk is speculative and discarded, exactly
	// as a real overlapped driver over-decodes its last in-flight block.
	chunk := 4 * par.Workers(cpuWorkers)
	cpuDone := 0
loop:
	for cpuDone < len(bins.Small) {
		hi := cpuDone + chunk
		if hi > len(bins.Small) {
			hi = len(bins.Small)
		}
		set := bins.Small[cpuDone:hi]
		counts := make([]WorkCounts, len(set))
		cres, err := runCPU(set, d.Cfg.Config, cpuWorkers, counts)
		if err != nil {
			return nil, err
		}
		for j := range set {
			next := out.CPUCounts
			next.Add(counts[j])
			if cpuTime(next) > window && cpuDone > 0 {
				break loop
			}
			out.CPUCounts = next
			place(set[j:j+1], cres.Results[j:j+1])
			cpuDone++
			if cpuTime(out.CPUCounts) > window {
				break loop
			}
		}
	}
	out.CPUContigs = cpuDone

	// GPU takes the bin-2 remainder when it returns.
	rest := bins.Small[cpuDone:]
	gpuRest := &GPUResult{}
	if len(rest) > 0 {
		gpuRest, err = d.Run(rest)
		if err != nil {
			return nil, err
		}
		place(rest, gpuRest.Results)
	}

	out.GPU = &GPUResult{}
	out.GPU.Add(gpu3.Stats)
	out.GPU.Add(gpuRest.Stats)

	cpuSpan := cpuTime(out.CPUCounts)
	if cpuSpan < window {
		cpuSpan = window
	}
	out.ModelTime = cpuSpan + gpuRest.TotalTime()
	return out, nil
}
