package locassm

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

// TestLoadExtEvidenceMatchesReads stages a batch of packed and raw reads
// as the driver does, then, chunk by chunk as buildTableV2 walks them,
// checks the extension evidence loadExtEvidence reads off the device (a
// packed read's next base from its key segment, a raw read's loaded)
// against the read bytes and qualities themselves.
func TestLoadExtEvidenceMatchesReads(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	const k = 21
	// Read lengths around the chunk boundaries: nk = rlen-k+1 of 1, 32, 33, 64, 65 …
	it := &sideItem{}
	for i, rlen := range []int{k, k + 1, k + 31, k + 32, k + 33, k + 63, k + 64, 150, 97, 150} {
		r := dna.Read{Seq: make([]byte, rlen), Qual: make([]byte, rlen)}
		for j := range r.Seq {
			r.Seq[j], r.Qual[j] = dna.Alphabet[rng.Intn(4)], byte(33+rng.Intn(41))
			if i%3 == 1 && rng.Intn(8) == 0 {
				r.Seq[j] = "NacgtR"[rng.Intn(6)]
			}
		}
		it.reads = append(it.reads, r)
	}
	b := &batchPlan{items: []*itemPlan{planItem(&sideItem{tail: []byte("ACGT")}, &cfg), planItem(it, &cfg)}}
	layoutBatch(b)
	var arena hostArena
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
	p := b.items[1]

	_, err = dev.Launch(simt.KernelConfig{Name: "ext", Warps: 1, Sequential: true}, func(w *simt.Warp) {
		var own gpuht.Keys
		var keyOffs, extBases simt.Vec
		for ri, r := range it.reads {
			if packed := p.keyOffs[ri]&gpuht.Packed != 0; packed != dna.Packable(r.Seq) {
				t.Errorf("read %d staged packed=%v", ri, packed)
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
						t.Fatalf("read %d k-mer %d: evidence %d (hi %v), want %d (hi %v)",
							ri, start+lane, extBases[lane], hiq.Has(lane), want, wantHi)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
