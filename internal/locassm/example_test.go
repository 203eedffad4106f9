package locassm_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/simt"
)

// Drive the paper's core module directly. A contig is cut out of a hidden
// genome, reads tiling past its ends become the candidate reads, and the
// module extends the contig back toward the truth — once with the CPU
// reference (Algorithms 1–2) and once with the GPU v2 warp-per-table kernel
// (§3.3–3.4) on a simulated V100; the two walks are bit-identical.
func Example() {
	rng := rand.New(rand.NewSource(2021))
	genome := make([]byte, 2000)
	for i := range genome {
		genome[i] = dna.Alphabet[rng.Intn(4)]
	}
	// The contig is the middle 800 bases; 120-base reads tile both ends.
	ctg := &locassm.CtgWithReads{ID: 1, Seq: genome[600:1400]}
	tile := func(from, to int) (reads []dna.Read) {
		for pos := from; pos+120 <= to; pos += 12 {
			reads = append(reads, dna.Read{
				ID:   fmt.Sprintf("r%d", pos),
				Seq:  genome[pos : pos+120],
				Qual: bytes.Repeat([]byte{dna.QualChar(35)}, 120),
			})
		}
		return reads
	}
	ctg.LeftReads, ctg.RightReads = tile(0, 700), tile(1300, 2000)
	work := []*locassm.CtgWithReads{ctg}
	cfg := locassm.DefaultConfig()

	cpu, err := locassm.RunCPU(work, cfg, 0)
	if err != nil {
		panic(err)
	}
	r := cpu.Results[0]
	fmt.Printf("CPU: +%d bases left (%s), +%d bases right (%s)\n",
		len(r.LeftExt), r.LeftState, len(r.RightExt), r.RightState)

	dev := simt.NewDevice(simt.V100())
	defer dev.Close()
	drv, err := locassm.NewDriver(dev, locassm.GPUConfig{Config: cfg, WarpPerTable: true})
	if err != nil {
		panic(err)
	}
	gpu, err := drv.Run(work)
	if err != nil {
		panic(err)
	}
	g := gpu.Results[0]
	fmt.Printf("GPU: +%d bases left (%s), +%d bases right (%s), %d kernel launches\n",
		len(g.LeftExt), g.LeftState, len(g.RightExt), g.RightState, len(gpu.Kernels))
	fmt.Println("identical:", bytes.Equal(r.LeftExt, g.LeftExt) && bytes.Equal(r.RightExt, g.RightExt))

	grown := r.ExtendedSeq(ctg.Seq)
	fmt.Printf("contig grew %d -> %d bases; matches the hidden genome: %v\n", len(ctg.Seq), len(grown),
		bytes.Equal(grown, genome[600-len(r.LeftExt):1400+len(r.RightExt)]))
	// Output:
	// CPU: +300 bases left (max-len), +300 bases right (max-len)
	// GPU: +300 bases left (max-len), +300 bases right (max-len), 2 kernel launches
	// identical: true
	// contig grew 800 -> 1400 bases; matches the hidden genome: true
}
