package locassm

// loadExtEvidence issues its two byte loads lane-strided (DESIGN.md §12,
// "Shape-declared ops"). The per-lane address loop it replaced is kept
// here, verbatim, as the oracle.

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/simt"
)

func refLoadExtEvidence(w *simt.Warp, mask simt.Mask, keyOffs *simt.Vec, k, rlen int, readOff uint64, dev batchDev, cfg *Config) (simt.Vec, simt.Mask) {
	extBases := simt.Splat(uint64(gpuht.NoExt))
	var hiq simt.Mask

	var hasExt simt.Mask
	var seqAddrs, qualAddrs simt.Vec
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		pos := keyOffs[lane] - readOff
		if int(pos)+k < rlen {
			hasExt |= simt.LaneMask(lane)
			seqAddrs[lane] = uint64(dev.seqBase) + keyOffs[lane] + uint64(k)
			qualAddrs[lane] = uint64(dev.qualBase) + keyOffs[lane] + uint64(k)
		}
	}
	w.Exec(simt.IInt, mask)
	if hasExt == 0 {
		return extBases, hiq
	}
	var baseBytes, qualBytes simt.Vec
	w.LoadGlobal(hasExt, &seqAddrs, 1, &baseBytes)
	w.LoadGlobal(hasExt, &qualAddrs, 1, &qualBytes)
	w.ExecN(simt.IInt, hasExt, 2)
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !hasExt.Has(lane) {
			continue
		}
		c, ok := dna.Code(byte(baseBytes[lane]))
		if !ok {
			continue
		}
		extBases[lane] = uint64(c)
		if dna.QualScore(byte(qualBytes[lane])) >= cfg.QualCutoff {
			hiq |= simt.LaneMask(lane)
		}
	}
	return extBases, hiq
}

func TestLoadExtEvidenceMatchesPerLaneLoop(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	// Read lengths around the chunk boundaries: nk = rlen-k+1 of 1, 32, 33, 64, 65 …
	const k = 21
	var seq, qual []byte
	var offs, lens []int
	for _, rlen := range []int{k, k + 1, k + 31, k + 32, k + 33, k + 63, k + 64, 150, 97} {
		offs, lens = append(offs, len(seq)), append(lens, rlen)
		for i := 0; i < rlen; i++ {
			seq = append(seq, "ACGTN"[rng.Intn(5)])
			qual = append(qual, byte(33+rng.Intn(41)))
		}
	}
	dev := simt.NewDevice(simt.V100())
	seqBase, _ := dev.Malloc(int64(len(seq) + 8))
	qualBase, err := dev.Malloc(int64(len(qual) + 8))
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteBytes(seqBase, seq)
	dev.WriteBytes(qualBase, qual)
	bd := batchDev{seqBase: seqBase, qualBase: qualBase}

	type evidence struct {
		ext simt.Vec
		hiq simt.Mask
	}
	var res [2]simt.KernelResult
	var got [2][]evidence
	for i := range res {
		res[i], err = dev.Launch(simt.KernelConfig{Name: "ext", Warps: 1, Sequential: true}, func(w *simt.Warp) {
			for ri, rlen := range lens {
				readOff := uint64(offs[ri])
				for start := 0; start < rlen-k+1; start += simt.WarpSize {
					var mask simt.Mask
					var keyOffs simt.Vec
					for lane := 0; lane < simt.WarpSize && start+lane < rlen-k+1; lane++ {
						mask |= simt.LaneMask(lane)
						keyOffs[lane] = readOff + uint64(start+lane)
					}
					var e evidence
					if i == 0 { // writes the active lanes only; the loop it replaced filled the rest with NoExt
						e.ext = simt.Splat(gpuht.NoExt)
						e.hiq = loadExtEvidence(w, mask, start, k, rlen, readOff, bd, &cfg, &e.ext)
					} else {
						e.ext, e.hiq = refLoadExtEvidence(w, mask, &keyOffs, k, rlen, readOff, bd, &cfg)
					}
					got[i] = append(got[i], e)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if res[0] != res[1] {
		t.Errorf("kernel results differ\nlive %+v\nref  %+v", res[0], res[1])
	}
	for j := range got[1] {
		if got[0][j] != got[1][j] {
			t.Fatalf("chunk %d: evidence differs\nlive %+v\nref  %+v", j, got[0][j], got[1][j])
		}
	}
}
