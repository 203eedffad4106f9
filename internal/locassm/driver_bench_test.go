package locassm

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/simt"
)

// benchBatch builds one representative batch (right side of a 40-contig
// workload) plus a slab for it on a fresh device.
func benchBatch(b *testing.B) (*Driver, *batchPlan, simt.Ptr) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ctgs := randomWorkload(rng, 40)
	d, err := NewDriver(testDev(), GPUConfig{Config: testConfig(), WarpPerTable: true})
	if err != nil {
		b.Fatal(err)
	}
	items := buildSideItems(ctgs, &d.Cfg.Config, false)
	batches, err := packBatches(items, &d.Cfg.Config, d.Cfg.MemBudget/pipelineStreams)
	if err != nil {
		b.Fatal(err)
	}
	batch := batches[0]
	slab, err := d.Dev.Malloc(batch.deviceBytes())
	if err != nil {
		b.Fatal(err)
	}
	return d, batch, slab
}

// BenchmarkDriverStaging compares the two host-staging strategies for one
// batch's inputs: the seed driver's one-MemcpyHtoD-per-read loop vs the
// pipelined driver's pack-into-arena + one copy per arena. The staged
// bytes are identical; only the copy structure differs.
func BenchmarkDriverStaging(b *testing.B) {
	b.Run("perread", func(b *testing.B) {
		d, batch, slab := benchBatch(b)
		bases := batch.bases(slab)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range batch.items {
				for ri := range p.item.reads {
					d.Dev.MemcpyHtoD(bases.seqBase+simt.Ptr(p.readOffs[ri]), p.item.reads[ri].Seq)
					d.Dev.MemcpyHtoD(bases.qualBase+simt.Ptr(p.readOffs[ri]), p.item.reads[ri].Qual)
				}
				d.Dev.MemcpyHtoD(bases.walks+simt.Ptr(p.walkOff), p.item.tail)
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		d, batch, slab := benchBatch(b)
		bases := batch.bases(slab)
		stream := d.Dev.NewStream()
		arena := &hostArena{slot: make([]byte, batch.hostBytes())}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arena.stage(batch)
			stream.MemcpyHtoD(bases.seqBase, arena.seq)
			stream.MemcpyHtoD(bases.qualBase, arena.qual)
			stream.MemcpyHtoD(bases.walks, arena.walks)
		}
	})
}

// BenchmarkDriverModes times full Run calls in both modes on one
// mixed workload (wall time of this repository's code, not model time).
func BenchmarkDriverModes(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	ctgs := randomWorkload(rng, 30)
	for _, bc := range []struct {
		name string
		mode DriverMode
	}{{"sequential", ModeSequential}, {"pipelined", ModePipelined}} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := NewDriver(testDev(), GPUConfig{
				Config:       testConfig(),
				WarpPerTable: true,
				MemBudget:    1 << 20,
				Mode:         bc.mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(ctgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
