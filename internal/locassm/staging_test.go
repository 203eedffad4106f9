package locassm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// TestLoadExtEvidenceMatchesReads stages a batch of packed and raw reads
// as the driver does, then, chunk by chunk as buildTableV2 walks them,
// checks the extension evidence loadExtEvidence reads off the device (a
// packed read's next base from its key segment, a raw read's loaded)
// against the read bytes and qualities themselves. A left item stages its
// lower-case and N reads reverse-complemented: its evidence is checked
// against each read's RevComp, and a read is packed when that is Packable.
func TestLoadExtEvidenceMatchesReads(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	const k = 21
	// Read lengths around the chunk boundaries: nk = rlen-k+1 of 1, 32, 33, 64, 65 …
	it, lt := &sideItem{}, &sideItem{left: true}
	for i, rlen := range []int{k, k + 1, k + 31, k + 32, k + 33, k + 63, k + 64, 150, 97, 150} {
		r := dna.Read{Seq: make([]byte, rlen), Qual: make([]byte, rlen)}
		for j := range r.Seq {
			r.Seq[j], r.Qual[j] = dna.Alphabet[rng.Intn(4)], byte(33+rng.Intn(41))
			if i%3 == 1 && rng.Intn(8) == 0 {
				r.Seq[j] = "NacgtR"[rng.Intn(6)]
			}
		}
		it.reads = append(it.reads, r)
		l := r.Clone()
		switch i % 3 {
		case 0: // packable only once reverse-complemented
			l.Seq[rng.Intn(rlen)] = "acgt"[rng.Intn(4)]
		case 2:
			l.Seq[rng.Intn(rlen)] = 'N'
		}
		lt.reads = append(lt.reads, l)
	}
	b := &batchPlan{items: []*itemPlan{planItem(&sideItem{tail: []byte("ACGT")}, &cfg), planItem(it, &cfg), planItem(lt, &cfg)}}
	layoutBatch(b)
	arena := hostArena{slot: make([]byte, b.hostBytes())}
	arena.stage(b)
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	slab, err := dev.Malloc(b.deviceBytes())
	if err != nil {
		t.Fatal(err)
	}
	bd := b.bases(slab)
	dev.MemcpyHtoD(bd.packBase, arena.pack)
	dev.MemcpyHtoD(bd.seqBase, arena.seq)
	dev.MemcpyHtoD(bd.qualBase, arena.qual)
	table := gpuht.Table{SeqBase: bd.seqBase, PackBase: bd.packBase, K: k}

	_, err = dev.Launch(simt.KernelConfig{Name: "ext", Warps: 1, Sequential: true}, func(w *simt.Warp) {
		var own gpuht.Keys
		var keyOffs, extBases simt.Vec
		for _, p := range b.items[1:] {
			for ri := range p.item.reads {
				r := p.item.reads[ri]
				if p.item.left {
					r = r.RevComp()
				}
				if packed := p.keyOffs[ri]&gpuht.Packed != 0; packed != dna.Packable(r.Seq) {
					t.Errorf("left=%v read %d staged packed=%v", p.item.left, ri, packed)
				}
				for start := 0; start < len(r.Seq)-k+1; start += simt.WarpSize {
					mask := simt.PrefixMask(len(r.Seq) - k + 1 - start)
					for lane := range keyOffs {
						keyOffs[lane] = uint64(p.keyOffs[ri]) + uint64(start+lane)
					}
					table.LoadKeys(w, mask, &keyOffs, &own)
					hiq := loadExtEvidence(w, mask, start, k, len(r.Seq), uint64(p.keyOffs[ri]), uint64(p.readOffs[ri]), &own, bd, &cfg, &extBases)
					for lane := 0; mask.Has(lane); lane++ {
						want, wantHi := uint64(gpuht.NoExt), false
						if i := start + lane + k; i < len(r.Seq) {
							if c, ok := dna.Code(r.Seq[i]); ok {
								want, wantHi = uint64(c), dna.QualScore(r.Qual[i]) >= cfg.QualCutoff
							}
						}
						if extBases[lane] != want || hiq.Has(lane) != wantHi {
							t.Fatalf("left=%v read %d k-mer %d: evidence %d (hi %v), want %d (hi %v)",
								p.item.left, ri, start+lane, extBases[lane], hiq.Has(lane), want, wantHi)
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDriverStagingOwnedByDevice runs the driver the way the la_dump
// benchmark does, through a new Driver for every run over one long-lived
// device. The host staging arenas are slots of the device's own buffer, so
// after the first run a run allocates only what it plans and returns: the
// same bytes whether or not two garbage collections came before it, and
// fewer than the input it stages.
func TestDriverStagingOwnedByDevice(t *testing.T) {
	ctgs := randomWorkload(rand.New(rand.NewSource(12)), 40)
	// Goroutines that end leave their descriptors for reuse: 512 of them are
	// more than the pipelined driver's stages ever start, so no measured run
	// pays for a new one.
	var wg sync.WaitGroup
	release := make(chan struct{})
	for range 512 {
		wg.Add(1)
		go func() { defer wg.Done(); <-release }()
	}
	close(release)
	wg.Wait()
	for _, mode := range []DriverMode{ModeSequential, ModePipelined} {
		t.Run(fmt.Sprint("mode=", mode), func(t *testing.T) {
			dev := testDev()
			defer dev.Close()
			cfg := GPUConfig{Config: testConfig(), WarpPerTable: true, Mode: mode}
			run := func() *Driver {
				d, err := NewDriver(dev, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Run(ctgs); err != nil {
					t.Fatal(err)
				}
				return d
			}
			d := run() // sizes the device's arena and staging buffer
			var staged uint64
			for _, left := range []bool{false, true} {
				batches, err := packBatches(buildSideItems(ctgs, &d.Cfg.Config, left), &d.Cfg.Config, d.Cfg.MemBudget/pipelineStreams)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range batches {
					staged += uint64(b.hostBytes() - b.hostSizes()[4])
				}
			}
			// The fewest bytes of five runs: what else the process runs can only add.
			least := func(gcs int) uint64 {
				fewest := ^uint64(0)
				var before, after runtime.MemStats
				for range 5 {
					for range gcs {
						runtime.GC()
					}
					runtime.ReadMemStats(&before)
					run()
					runtime.ReadMemStats(&after)
					fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
				}
				return fewest
			}
			quiet, collected := least(0), least(2)
			t.Logf("run: %d bytes, %d after two GCs; %d bytes staged", quiet, collected, staged)
			if max(quiet, collected)-min(quiet, collected) > 1024 {
				t.Errorf("run allocated %d bytes, %d after two GCs; want within 1 KiB", quiet, collected)
			}
			if max(quiet, collected) >= staged {
				t.Errorf("run allocated %d bytes, %d after two GCs; want fewer than the %d bytes it stages", quiet, collected, staged)
			}
		})
	}
}
