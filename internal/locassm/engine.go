package locassm

import (
	"fmt"
	"sync"

	"mhm2sim/internal/clock"
	"mhm2sim/internal/par"
	"mhm2sim/internal/simt"
)

// Engine is the uniform local-assembly execution interface: every way this
// codebase can run the §2.3 extension algorithm — the host flat-table
// engine, the single-GPU batch driver, the multi-GPU node driver, and the
// distributed multi-rank runtime — sits behind it. The pipeline driver
// resolves exactly one Engine per run and calls it once per contigging
// round, so adding an execution substrate means adding a case to
// NewEngine, never touching the driver loop.
type Engine interface {
	// Assemble locally assembles the contigs of round k and returns the
	// per-contig results in input order plus unified accounting. Engines
	// must NOT mutate ctgs (in particular ctgs[i].Seq); the caller applies
	// the extensions. Every engine computes bit-identical Results for the
	// same input — the package's central correctness property.
	Assemble(k int, ctgs []*CtgWithReads) ([]Result, Stats, error)
	// Close closes the devices the engine drew from the default source
	// (EngineSpec.ResolveDevices); under a supplied source, and for the host
	// engine, there is nothing to release. Whoever has NewEngine build an
	// engine calls it when the run ends.
	Close()
}

// Stats is the unified accounting every engine returns for one round.
// Host engines fill Counts; device engines fill the kernel fields; all
// engines report Busy, the modeled busy wall-clock of the round (max over
// devices when several run concurrently) that distributed schedulers use
// for per-rank load accounting.
type Stats struct {
	// Counts tallies host-side algorithmic work (flat-table engine).
	Counts WorkCounts
	// Kernels holds one entry per device kernel launch, in launch order.
	Kernels []simt.KernelResult
	// KernelTime/TransferTime are the modeled device time components.
	KernelTime   clock.Device
	TransferTime clock.Device
	// Busy is the engine's modeled busy wall-clock for the round.
	Busy clock.Machine
	// Resplits counts batches that failed with a recoverable table fault
	// and were halved and retried; Batches counts staged batches.
	Resplits int
	Batches  int
}

// Add accumulates o into s (kernel lists are appended in order).
func (s *Stats) Add(o Stats) {
	s.Counts.Add(o.Counts)
	s.Kernels = append(s.Kernels, o.Kernels...)
	s.KernelTime += o.KernelTime
	s.TransferTime += o.TransferTime
	s.Busy += o.Busy
	s.Resplits += o.Resplits
	s.Batches += o.Batches
}

// Engine names.
const (
	EngineCPU      = "cpu"
	EngineGPU      = "gpu"
	EngineMultiGPU = "multigpu"
	// EngineDist is internal/dist's runtime. NewEngine cannot build it from
	// a spec: it binds to a live multi-rank run (fabric, per-rank devices,
	// fault injector), so dist.Run constructs it and injects it through
	// EngineSpec.Instance.
	EngineDist = "dist"
)

// EngineSpec is the single resolved description of which engine to build
// and how — the replacement for scattering UseGPU-style booleans through
// configs. Zero fields default sensibly per engine.
type EngineSpec struct {
	// Name selects the engine ("" → EngineCPU).
	Name string
	// Instance, when non-nil, is the engine: NewEngine returns it as-is and
	// reads nothing else. The distributed runtime injects itself this way,
	// since it cannot be built from a declarative spec alone.
	Instance Engine
	// Config is the walk parameterization of every engine; it replaces
	// the one embedded in GPU, which a spec leaves zero or equal to it
	// (NewEngine rejects a different one).
	Config Config
	// Workers bounds the host engine's goroutines (0 = GOMAXPROCS). It
	// changes host wall only: the engine's Busy prices its work on RankCores.
	Workers int
	// GPU configures the device batch driver (gpu and multigpu engines).
	GPU GPUConfig
	// Devices is where the run's devices come from: the gpu engine, each
	// multigpu driver, each device rank of a dist run and budget counting
	// call it once, from the run's own goroutine, for a device to hold until
	// the run ends. The supplier keeps its devices: a
	// run leaves them FreeAll'd, never closed. nil = ResolveDevices' default.
	Devices func() (*simt.Device, error)
	// Device is shorthand for a Devices that supplies this one device to the
	// gpu engine (a dist rank's engine over its device, bench/'s la_dump).
	Device *simt.Device
	// GPUs is the multigpu engine's device count (0 = DefaultNodeGPUs).
	GPUs int
}

// MinDriverBudget floors the local-assembly driver budget derived from a
// run-level memory budget (pipeline.Config.EngineSpec): counting budgets go
// down to 64 KiB, but the driver must always fit one batch item per stream.
const MinDriverBudget = 4 << 20

// One Summit node (§4.1), which every modeled CPU price reads: 42 POWER9
// cores and six V100s (the multigpu engine's default). A rank is one GPU's
// share of a node.
const (
	NodeCores       = 42
	DefaultNodeGPUs = 6
	RankCores       = NodeCores / DefaultNodeGPUs
)

// ResolveDevices makes s.Devices non-nil and returns what releases the
// devices drawn from it: nothing for a supplied source, and for the one
// default — fresh simt.V100()s, the paper's device — a Close of each, since an
// open device keeps its warp pool parked and its arena pinned. A run calls it
// on its own copy of the spec, builds everything from that copy, and defers
// release.
func (s *EngineSpec) ResolveDevices() (release func()) {
	if dev := s.Device; dev != nil && s.Devices == nil {
		s.Devices = func() (*simt.Device, error) { return dev, nil }
	}
	if s.Devices != nil {
		return func() {}
	}
	var made []*simt.Device
	s.Devices = func() (*simt.Device, error) {
		made = append(made, simt.NewDevice(simt.V100()))
		return made[len(made)-1], nil
	}
	return func() {
		for _, dev := range made {
			dev.Close()
		}
	}
}

// gpuConfig resolves the device driver configuration: GPU under the spec's
// walk Config.
func (s *EngineSpec) gpuConfig() GPUConfig {
	gcfg := s.GPU
	gcfg.Config = s.Config
	return gcfg
}

// NewEngine resolves a spec into a constructed engine: a pre-built
// Instance wins, then the engine named by Name ("" means cpu).
func NewEngine(spec EngineSpec) (Engine, error) {
	if spec.Instance != nil {
		return spec.Instance, nil
	}
	if spec.GPU.Config != (Config{}) && spec.GPU.Config != spec.Config {
		return nil, fmt.Errorf("locassm: EngineSpec.GPU.Config differs from EngineSpec.Config; set the walk config in EngineSpec.Config only")
	}
	switch spec.Name {
	case "", EngineCPU:
		return newCPUEngine(spec)
	case EngineGPU:
		return newGPUEngine(spec)
	case EngineMultiGPU:
		return newMultiGPUEngine(spec)
	case EngineDist:
		return nil, fmt.Errorf("locassm: the %q engine requires a live multi-rank runtime; use dist.Run (mhm2sim -engine=dist)", EngineDist)
	}
	return nil, fmt.Errorf("locassm: unknown engine %q (%s|%s|%s|%s)",
		spec.Name, EngineCPU, EngineGPU, EngineMultiGPU, EngineDist)
}

// cpuEngine runs RunCPU's zero-allocation flat-table path on one workspace
// per worker, kept for the engine's lifetime so no garbage collection changes
// what a round allocates; mu holds them for one Assemble at a time.
type cpuEngine struct {
	cfg    Config
	mu     sync.Mutex
	spaces []*cpuWorkspace
}

func newCPUEngine(spec EngineSpec) (Engine, error) {
	if err := spec.Config.Validate(); err != nil {
		return nil, err
	}
	return &cpuEngine{cfg: spec.Config, spaces: make([]*cpuWorkspace, par.Workers(spec.Workers))}, nil
}

func (e *cpuEngine) Close() {}

func (e *cpuEngine) Assemble(_ int, ctgs []*CtgWithReads) ([]Result, Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cres, err := runCPU(ctgs, e.cfg, e.spaces)
	if err != nil {
		return nil, Stats{}, err
	}
	return cres.Results, Stats{Counts: cres.Counts, Busy: clock.Machine(DefaultCPUCost().Time(cres.Counts, RankCores))}, nil
}

// gpuEngine wraps the pipelined single-device batch driver.
type gpuEngine struct {
	drv     *Driver
	release func() // of the spec's device source
}

func newGPUEngine(spec EngineSpec) (Engine, error) {
	release := spec.ResolveDevices()
	dev, err := spec.Devices()
	if err != nil {
		return nil, err
	}
	drv, err := NewDriver(dev, spec.gpuConfig())
	if err != nil {
		release()
		return nil, err
	}
	return &gpuEngine{drv: drv, release: release}, nil
}

func (e *gpuEngine) Close() { e.release() }

func (e *gpuEngine) Assemble(_ int, ctgs []*CtgWithReads) ([]Result, Stats, error) {
	gres, err := e.drv.Run(ctgs)
	if err != nil {
		return nil, Stats{}, err
	}
	return gres.Results, gres.Stats, nil
}

// multiGPUEngine wraps the node driver: the workload is sharded across the
// node's devices and they run concurrently, so Busy is the slowest
// device's modeled time rather than the sum.
type multiGPUEngine struct {
	nd      *NodeDriver
	release func() // of the spec's device source
}

func newMultiGPUEngine(spec EngineSpec) (Engine, error) {
	gpus := spec.GPUs
	if gpus <= 0 {
		gpus = DefaultNodeGPUs
	}
	release := spec.ResolveDevices()
	nd, err := NewNodeDriver(gpus, spec.Devices, spec.gpuConfig())
	if err != nil {
		release()
		return nil, err
	}
	return &multiGPUEngine{nd: nd, release: release}, nil
}

func (e *multiGPUEngine) Close() { e.release() }

func (e *multiGPUEngine) Assemble(_ int, ctgs []*CtgWithReads) ([]Result, Stats, error) {
	nres, err := e.nd.Run(ctgs)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	for _, g := range nres.PerGPU {
		stats.Add(g.Stats)
	}
	stats.Busy = clock.Machine(nres.NodeTime) // devices overlap: the max, not the sum Add made
	return nres.Results, stats, nil
}
