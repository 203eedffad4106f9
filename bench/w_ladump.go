package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sort"

	"mhm2sim/internal/cluster"
	"mhm2sim/internal/dna"
	"mhm2sim/internal/figures"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/pipeline"
	"mhm2sim/internal/simt"
)

// resultsDigest hashes the extensions and terminal states of every contig:
// the part of a local-assembly result every engine must agree on.
func resultsDigest(rs []locassm.Result) string {
	h := sha256.New()
	var n [8]byte
	for i := range rs {
		binary.LittleEndian.PutUint64(n[:], uint64(rs[i].ID))
		h.Write(n[:])
		h.Write(rs[i].LeftExt)
		h.Write([]byte{0, byte(rs[i].LeftState)})
		h.Write(rs[i].RightExt)
		h.Write([]byte{0, byte(rs[i].RightState)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// captureDump is la_dump's set-up: generate the deep community, run the cpu
// pipeline over its FASTQ at the dump's own k only (the earlier rounds
// would triple set-up time and change the captured workload's size by a
// few percent), and take Result.LAWorkload through the serialisation
// mhm2sim -dump-la writes and cmd/locassm -load reads.
// dumpReads is the number of candidate reads the dump is cut to.
const dumpReads = 12000

func captureDump(seed int64, cfg pipeline.Config) ([]byte, []*locassm.CtgWithReads, error) {
	in, err := communities[wLADump].build(seed)
	if err != nil {
		return nil, nil, err
	}
	pairs, err := dna.ReadInterleavedPairs(bytes.NewReader(in.fastq))
	if err != nil {
		return nil, nil, err
	}
	res, err := pipeline.Run(pairs, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Keep the leading contigs that together hold dumpReads candidate
	// reads: the captured workload's size varies by a tenth from seed to
	// seed, the op's work should not.
	keep, reads := 0, 0
	for keep < len(res.LAWorkload) && reads < dumpReads {
		reads += res.LAWorkload[keep].NumReads()
		keep++
	}
	var buf bytes.Buffer
	if err := locassm.DumpWorkload(&buf, res.LAWorkload[:keep]); err != nil {
		return nil, nil, err
	}
	work, err := locassm.LoadWorkload(bytes.NewReader(buf.Bytes()))
	return buf.Bytes(), work, err
}

// runLADump is the paper's §4.1 standalone kernel study: a local-assembly
// workload captured from one upstream pipeline run, then assembled over
// and over on the simulated GPU.
func runLADump(r *run) error {
	lcfg := locassm.DefaultConfig()
	gcfg := locassm.GPUConfig{Config: lcfg, WarpPerTable: true}
	var work []*locassm.CtgWithReads
	var dump []byte
	if err := r.timeSetup(func() (err error) {
		dump, work, err = captureDump(r.seed, r.pipelineConfig(55))
		return err
	}, nil); err != nil {
		return err
	}
	r.sha = sha(dump)
	if err := checkPin(r.seed, wLADump+".dump", r.sha); err != nil {
		return err
	}
	for _, c := range work {
		r.bases += int64(len(c.Seq))
		for _, rd := range c.LeftReads {
			r.bases += int64(len(rd.Seq))
		}
		for _, rd := range c.RightReads {
			r.bases += int64(len(rd.Seq))
		}
		r.pairs += c.NumReads()
	}
	r.logf("dump: %d contigs, %d candidate reads, %d bases", len(work), r.pairs, r.bases)

	// The measured op leases one long-lived device, as a daemon job does;
	// its arena and worker pool are built by the warm-up op.
	gpu := simt.NewDevice(simt.V100())
	defer gpu.Close()
	engine := func(name string) ([]locassm.Result, locassm.Stats, error) {
		spec := locassm.EngineSpec{Name: name, Config: lcfg, GPU: gcfg, Workers: r.workers}
		if name == locassm.EngineGPU {
			spec.Device = gpu
		}
		eng, err := locassm.NewEngine(spec)
		if err != nil {
			return nil, locassm.Stats{}, err
		}
		return eng.Assemble(55, work)
	}

	// The host flat-table engine is the reference every device result
	// must equal.
	var cpuRes []locassm.Result
	var cpuStats locassm.Stats
	cpuS, err := r.rec.do("locassm.cpu", "parity", -1, func(int) (err error) {
		cpuRes, cpuStats, err = engine(locassm.EngineCPU)
		return err
	})
	if err != nil {
		return err
	}
	want := resultsDigest(cpuRes)

	var gpuStats locassm.Stats
	op := func(rec *recorder, op string, parent int) (string, error) {
		var res []locassm.Result
		_, err := rec.do("locassm.gpu", op, parent, func(int) (err error) {
			res, gpuStats, err = engine(locassm.EngineGPU)
			return err
		})
		if err != nil {
			return "", err
		}
		return resultsDigest(res), nil
	}
	r.measure(op, want)
	r.set("model_device_s", (gpuStats.KernelTime + gpuStats.TransferTime).Seconds())
	if !r.trace {
		return nil
	}

	r.set("locassm.cpu_host_s", cpuS)
	r.set("locassm.cpu_table_builds", float64(cpuStats.Counts.TableBuilds))
	r.set("locassm.cpu_kmers_inserted", float64(cpuStats.Counts.KmersInserted))
	r.set("locassm.cpu_walk_steps", float64(cpuStats.Counts.WalkSteps))
	ext := 0
	for i := range cpuRes {
		ext += len(cpuRes[i].LeftExt) + len(cpuRes[i].RightExt)
	}
	r.set("locassm.ext_bases", float64(ext))
	bins := locassm.MakeBins(work, 0)
	r.set("locassm.bin1_ctgs", float64(len(bins.Zero)))
	r.set("locassm.bin2_ctgs", float64(len(bins.Small)))
	r.set("locassm.bin3_ctgs", float64(len(bins.Large)))

	r.set("locassm.gpu_model_kernel_s", gpuStats.KernelTime.Seconds())
	r.set("locassm.gpu_model_xfer_s", gpuStats.TransferTime.Seconds())
	r.set("locassm.gpu_batches", float64(gpuStats.Batches))
	r.set("locassm.gpu_resplits", float64(gpuStats.Resplits))
	var ks simt.Stats
	for i := range gpuStats.Kernels {
		ks.Add(&gpuStats.Kernels[i].Stats)
	}
	instrs := ks.TotalWarpInstrs()
	r.set("simt.warp_instrs", float64(instrs))
	r.set("simt.global_sectors", float64(ks.GlobalSectors))
	r.set("simt.atomic_sectors", float64(ks.AtomicSectors))
	r.set("simt.predicated_off_frac", 1-ks.NonPredicatedRatio())
	// Host time per simulated event, over the traced gpu ops.
	for _, s := range r.samples["locassm.gpu_host_s"] {
		r.add("simt.warp_minstr_per_s", float64(instrs)/s/1e6)
	}

	// The other two device paths, for parity and their own numbers.
	var mgRes []locassm.Result
	var mgStats locassm.Stats
	s := r.probe("locassm.multigpu", func() (err error) {
		mgRes, mgStats, err = engine(locassm.EngineMultiGPU)
		return err
	})
	if r.probeErr == nil && resultsDigest(mgRes) != want {
		r.fail("multigpu results differ from the cpu engine's")
	}
	r.set("locassm.multigpu_host_s", s)
	r.set("locassm.multigpu_model_busy_s", mgStats.Busy.Seconds())

	var v1 *locassm.GPUResult
	s = r.probe("locassm.v1", func() error {
		dev := simt.NewDevice(simt.V100())
		defer dev.Close()
		drv, err := locassm.NewDriver(dev, locassm.GPUConfig{Config: lcfg, WarpPerTable: false})
		if err != nil {
			return err
		}
		v1, err = drv.Run(work)
		return err
	})
	if r.probeErr != nil {
		return r.probeErr
	}
	if resultsDigest(v1.Results) != want {
		r.fail("v1 (thread-per-table) results differ from the cpu engine's")
	}
	r.set("locassm.v1_host_s", s)
	r.set("locassm.v1_model_kernel_s", v1.KernelTime.Seconds())
	r.set("locassm.v2_over_v1_model", gpuStats.KernelTime.Seconds()/v1.KernelTime.Seconds())

	if err := simtProbes(r); err != nil {
		return err
	}
	if err := gpuhtProbe(r, work); err != nil {
		return err
	}

	// The figure harness over the same dump.
	var rf figures.RooflineResults
	s = r.probe("figures.roofline_sweep", func() (err error) {
		rf, err = figures.RunRoofline(work, lcfg, 1)
		return err
	})
	r.set("figures.roofline_sweep_s", s)
	r.set("roofline.v1_warp_gips", rf.V1.WarpGIPS)
	r.set("roofline.v2_warp_gips", rf.V2.WarpGIPS)

	// The cluster model fitted to the paper's 64- and 1024-node speedups;
	// the 256-node point in between is its prediction for this dump.
	var speedup float64
	s = r.probe("cluster.model_fit", func() error {
		m, err := cluster.ModelFromWorkload(work, lcfg)
		if err != nil {
			return err
		}
		f64, err := m.FitScaling(7.2, 2.65)
		if err != nil {
			return err
		}
		speedup = m.LAScaling([]int{256}, f64)[0].Speedup
		return nil
	})
	r.set("cluster.model_fit_ms", s*1e3)
	r.set("cluster.la_speedup_256n", speedup)
	return r.probeErr
}

// simtProbes times the simulator's fixed costs: an empty launch and the
// host↔device copies.
func simtProbes(r *run) error {
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	empty := func(*simt.Warp) {}
	kcfg := simt.KernelConfig{Name: "empty", Warps: 64}
	for i := 0; i < 10; i++ { // fill the launch-state pools
		if _, err := dev.Launch(kcfg, empty); err != nil {
			return err
		}
	}
	const launches = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := r.probe("simt.launch", func() error {
		for i := 0; i < launches; i++ {
			if _, err := dev.Launch(kcfg, empty); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&m1)
	r.set("simt.launch_us", s/launches*1e6)
	r.set("simt.launch_allocs", float64((m1.Mallocs-m0.Mallocs)/launches))

	const size = 64 << 20
	ptr, err := dev.Malloc(size)
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	s = r.probe("simt.memcpy", func() error {
		dev.MemcpyHtoD(ptr, buf)
		dev.MemcpyDtoH(buf, ptr)
		return nil
	})
	r.set("simt.memcpy_gb_per_s", 2*size/s/1e9)
	return r.probeErr
}

// gpuhtProbe drives the warp-cooperative hash table directly: one launch
// inserts every 21-mer of the reads of the 32 contigs with the most
// candidate reads, then looks each one up again.
func gpuhtProbe(r *run, work []*locassm.CtgWithReads) error {
	const k = 21
	byReads := append([]*locassm.CtgWithReads(nil), work...)
	sort.SliceStable(byReads, func(a, b int) bool { return byReads[a].NumReads() > byReads[b].NumReads() })
	if len(byReads) > 32 {
		byReads = byReads[:32]
	}
	var arena []byte
	var offs []uint32
	for _, c := range byReads {
		for _, rd := range append(append([]dna.Read(nil), c.LeftReads...), c.RightReads...) {
			for i := 0; i+k <= len(rd.Seq); i++ {
				offs = append(offs, uint32(len(arena)+i))
			}
			arena = append(arena, rd.Seq...)
		}
	}
	arena = append(arena, make([]byte, 8)...) // HashKmers may read 7 bytes past a key
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	seqBase, err := dev.Malloc(int64(len(arena)))
	if err != nil {
		return err
	}
	dev.WriteBytes(seqBase, arena)
	slots := gpuht.HostSlots(len(offs))
	base, err := dev.Malloc(gpuht.Bytes(slots))
	if err != nil {
		return err
	}
	tab := gpuht.Table{Base: base, Capacity: uint64(slots), SeqBase: seqBase, K: k}
	if _, err := dev.Launch(simt.KernelConfig{Name: "clear", Warps: 1, Sequential: true}, func(w *simt.Warp) {
		gpuht.ClearEntries(w, base, slots, 1)
	}); err != nil {
		return err
	}
	var kres simt.KernelResult
	var kerr error
	found := 0
	s := r.probe("gpuht.insert_lookup", func() (err error) {
		kres, err = dev.Launch(simt.KernelConfig{Name: "insert_lookup", Warps: 1, Sequential: true}, func(w *simt.Warp) {
			for start := 0; start < len(offs); start += simt.WarpSize {
				var mask simt.Mask
				var keyOffs, extBases simt.Vec
				for lane := 0; lane < simt.WarpSize && start+lane < len(offs); lane++ {
					mask |= simt.LaneMask(lane)
					keyOffs[lane] = uint64(offs[start+lane])
					extBases[lane] = uint64(gpuht.NoExt)
				}
				if e := tab.InsertBatch(w, mask, &keyOffs, &extBases, 0); e != nil && kerr == nil {
					kerr = e
				}
			}
			for i, off := range offs {
				if _, ok := tab.LookupLane(w, i%simt.WarpSize, uint64(seqBase)+uint64(off)); ok {
					found++
				}
			}
		})
		if err == nil {
			err = kerr
		}
		return err
	})
	if r.probeErr != nil {
		return r.probeErr
	}
	if found != len(offs) {
		r.fail("gpuht probe: %d of %d inserted k-mers found again", found, len(offs))
	}
	r.set("gpuht.insert_lookup_host_s", s)
	r.set("gpuht.insert_lookup_warp_instrs", float64(kres.TotalWarpInstrs()))
	return nil
}
