package service

import (
	"context"
	"fmt"
	"os"

	"mhm2sim/internal/dist"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/faults"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/synth"
)

// Plan is a run a JobSpec denotes: its input and its configuration. A
// front end attaches its host-side settings to the configuration — the
// scheduler a checkpoint dir, an observer and the job's lease as the device
// source; mhm2sim its -gpualn, -preprocess, -estimate-insert, -workers and
// -checkpoint — and calls Run.
type Plan struct {
	// Pairs is the input; Genomes the truth genomes it was sampled from
	// (preset inputs only, nil for a FASTQ).
	Pairs   []dna.PairedRead
	Genomes [][]byte
	// Dist is the distributed run's configuration, nil unless the spec's
	// engine is dist.
	Dist *dist.Config
	// Pipeline is the run's pipeline configuration. Under the dist engine
	// it points at Dist.Pipeline, so a setting is attached the same way for
	// every engine.
	Pipeline *pipeline.Config
}

// NewPlan validates the spec, translates it and loads its input.
func NewPlan(spec JobSpec) (*Plan, error) {
	spec = spec.withDefaults()
	p, err := spec.translate()
	if err != nil {
		return nil, err
	}
	p.Pairs, p.Genomes, err = spec.loadInput()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the plan: the only dispatch between the single-process
// pipeline and the distributed runtime. The report is nil unless the run
// was distributed.
func (p *Plan) Run(ctx context.Context) (*pipeline.Result, *dist.Report, error) {
	if p.Dist != nil {
		return dist.RunContext(ctx, p.Pairs, *p.Dist)
	}
	res, err := pipeline.RunContext(ctx, p.Pairs, *p.Pipeline)
	return res, nil, err
}

// Validate checks the spec without reading its input: the rules only the
// spec can know, then Validate of the configuration it translates to.
func (s JobSpec) Validate() error {
	_, err := s.withDefaults().translate()
	return err
}

// BuildInput returns the spec's reads and pipeline configuration, with no
// checkpoint dir, observer, or engine instance attached.
func BuildInput(spec JobSpec) ([]dna.PairedRead, pipeline.Config, error) {
	p, err := NewPlan(spec)
	if err != nil {
		return nil, pipeline.Config{}, err
	}
	return p.Pairs, *p.Pipeline, nil
}

// check holds the rules no translated configuration can express: which
// engine a field belongs to, and the size ceiling on what arrives from
// outside the program.
func (s JobSpec) check() error {
	if s.Ranks > faults.MaxRanks || s.GPUs > faults.MaxRanks {
		return fmt.Errorf("service: ranks %d / gpus %d exceed the %d ceiling", s.Ranks, s.GPUs, faults.MaxRanks)
	}
	switch s.Engine {
	case locassm.EngineCPU, locassm.EngineGPU, locassm.EngineMultiGPU:
		if s.Ranks > 1 {
			return fmt.Errorf("service: engine %q conflicts with ranks %d (multi-rank runs use engine=dist)", s.Engine, s.Ranks)
		}
		var distOnly string
		switch {
		case s.Faults != "":
			distOnly = "faults"
		case s.Elastic != "":
			distOnly = "elastic"
		case s.Shard != "" && s.Shard != dist.ShardHash:
			distOnly = "shard=" + s.Shard
		case s.HostRanks:
			distOnly = "host_ranks"
		}
		if distOnly != "" {
			return fmt.Errorf("service: %s requires engine=dist with ranks ≥ 2, got engine %q", distOnly, s.Engine)
		}
	case locassm.EngineDist:
		if s.Ranks < 2 {
			return fmt.Errorf("service: engine=dist requires ranks ≥ 2, got %d", s.Ranks)
		}
	default:
		return fmt.Errorf("service: unknown engine %q (cpu|gpu|multigpu|dist)", s.Engine)
	}
	if s.ReadsPath == "" {
		if _, err := synth.PresetByName(s.Preset); err != nil {
			return err
		}
	}
	if s.Depth < 0 || s.Genomes < 0 || s.MinGenomeLen < 0 || s.MaxGenomeLen < 0 {
		return fmt.Errorf("service: negative community override")
	}
	return nil
}

// translate is the one translation of a (defaulted) spec into the
// configuration it denotes, validated; it reads no input. Everything a
// standalone run and a daemon job of the same spec share is decided here,
// which is what makes their outputs byte-identical.
func (s JobSpec) translate() (*Plan, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.EstimateInsert = true
	if len(s.Rounds) > 0 {
		cfg.Rounds = append([]int(nil), s.Rounds...)
	}
	cfg.MemBudget = s.MemBudget
	if s.Engine != locassm.EngineDist {
		cfg.Engine.Name = s.Engine
		if s.Engine == locassm.EngineMultiGPU {
			cfg.Engine.GPUs = s.GPUs
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &Plan{Pipeline: &cfg}, nil
	}
	dcfg := dist.DefaultConfig(s.Ranks)
	dcfg.Pipeline = cfg
	if s.Shard != "" {
		dcfg.ShardPolicy = s.Shard
	}
	dcfg.Elastic = s.Elastic
	dcfg.CPUAssembly = s.HostRanks
	if s.Faults != "" {
		var err error
		dcfg.Faults, err = faults.NewPlan(s.Faults, s.FaultSeed, s.Ranks, len(cfg.Rounds))
		if err != nil {
			return nil, err
		}
	}
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	return &Plan{Dist: &dcfg, Pipeline: &dcfg.Pipeline}, nil
}

// loadInput reads the FASTQ the spec names, or builds its preset community
// with the spec's overrides.
func (s JobSpec) loadInput() ([]dna.PairedRead, [][]byte, error) {
	if s.ReadsPath != "" {
		f, err := os.Open(s.ReadsPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		pairs, err := dna.ReadInterleavedPairs(f)
		return pairs, nil, err
	}
	preset, err := synth.PresetByName(s.Preset)
	if err != nil {
		return nil, nil, err
	}
	if s.Seed != 0 {
		preset.Seed = s.Seed
	}
	if s.Genomes > 0 {
		preset.Com.NumGenomes = s.Genomes
	}
	if s.MinGenomeLen > 0 {
		preset.Com.MinGenomeLen = s.MinGenomeLen
	}
	if s.MaxGenomeLen > 0 {
		preset.Com.MaxGenomeLen = s.MaxGenomeLen
	}
	if s.Depth > 0 {
		preset.Reads.Depth = s.Depth
	}
	com, pairs, err := preset.Build()
	if err != nil {
		return nil, nil, err
	}
	genomes := make([][]byte, len(com.Genomes))
	for i := range com.Genomes {
		genomes[i] = com.Genomes[i].Seq
	}
	return pairs, genomes, nil
}
