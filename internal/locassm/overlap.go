package locassm

import (
	"runtime"
	"sync"
	"time"
)

// This file implements the §4.3 / Fig 11 integration schedule: after
// binning, the third bin (contigs with the most candidate reads) is
// offloaded to the GPU first — launched from a separate thread so control
// returns to the CPU — while the CPU works through bin 2. When the GPU
// returns, whatever remains of bin 2 is offloaded too. Bin 3 goes first
// because GPUs fare better with more work per launch (latency hiding).

// CPUTimeModel estimates how long a node's CPU implementation needs for
// the given work counts; the overlap scheduler uses it to decide how much
// of bin 2 the CPU finishes while the GPU processes bin 3.
type CPUTimeModel func(WorkCounts) time.Duration

// DefaultCPUTime returns a simple per-operation cost model for `workers`
// cores (55 ns per insert, 80 ns per lookup — the same constants the
// cluster model starts from before calibration).
func DefaultCPUTime(workers int) CPUTimeModel {
	if workers < 1 {
		workers = 1
	}
	return func(wc WorkCounts) time.Duration {
		ns := float64(wc.KmersInserted)*55 + float64(wc.Lookups)*80 +
			float64(wc.WalkSteps)*10 + float64(wc.TableBuilds)*3000
		return time.Duration(ns / float64(workers))
	}
}

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
// what); cpuTime decides the CPU/GPU split of bin 2 (nil uses
// DefaultCPUTime for the driver's worker count... callers should pass the
// model they calibrate elsewhere).
func (d *Driver) RunOverlapped(ctgs []*CtgWithReads, cpuTime CPUTimeModel, cpuWorkers int) (*OverlapResult, error) {
	if cpuTime == nil {
		cpuTime = DefaultCPUTime(cpuWorkers)
	}
	bins := MakeBins(ctgs, d.Cfg.SmallLimit)

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
	workers := cpuWorkers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := 4 * workers
	cpuDone := 0
loop:
	for cpuDone < len(bins.Small) {
		hi := cpuDone + chunk
		if hi > len(bins.Small) {
			hi = len(bins.Small)
		}
		set := bins.Small[cpuDone:hi]
		results, counts := cpuChunk(set, &d.Cfg.Config, workers)
		for j := range set {
			next := out.CPUCounts
			next.Add(counts[j])
			if cpuTime(next) > window && cpuDone > 0 {
				break loop
			}
			out.CPUCounts = next
			place(set[j:j+1], results[j:j+1])
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

// cpuChunk extends a chunk of contigs across `workers` goroutines,
// returning per-contig results AND per-contig work counts (unlike RunCPU,
// which only totals them) so the overlap scheduler can replay its cutoff
// decision one contig at a time.
func cpuChunk(ctgs []*CtgWithReads, cfg *Config, workers int) ([]Result, []WorkCounts) {
	results := make([]Result, len(ctgs))
	counts := make([]WorkCounts, len(ctgs))
	if workers > len(ctgs) {
		workers = len(ctgs)
	}
	var wg sync.WaitGroup
	next := make(chan int, len(ctgs))
	for i := range ctgs {
		next <- i
	}
	close(next)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			ws := getWorkspace()
			defer putWorkspace(ws)
			for i := range next {
				results[i] = extendContigCPU(ws, ctgs[i], cfg, &counts[i])
			}
		}()
	}
	wg.Wait()
	return results, counts
}
