// GPU-simulator example: program the simt substrate directly, the way the
// local-assembly kernels do. The kernel below builds a base-composition
// histogram of a DNA sequence with warp-cooperative loads, a ballot vote,
// and atomic adds, then the host reads the result and the kernel's
// instruction-roofline characterization.
//
// Run with: go run ./examples/gpusim
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/roofline"
	"mhm2sim/internal/simt"
)

func main() {
	dev := simt.NewDevice(simt.V100())

	// Stage a random DNA sequence in device memory.
	rng := rand.New(rand.NewSource(5))
	seq := make([]byte, 1<<16)
	for i := range seq {
		seq[i] = dna.Alphabet[rng.Intn(4)]
	}
	seqPtr, err := dev.Malloc(int64(len(seq) + 8))
	if err != nil {
		log.Fatal(err)
	}
	dev.MemcpyHtoD(seqPtr, seq)

	histPtr, err := dev.Malloc(4 * 8)
	if err != nil {
		log.Fatal(err)
	}

	// One warp per 4 KiB block; lanes stride the block with coalesced
	// 1-byte loads and vote on G/C content before updating the global
	// histogram atomically.
	const bytesPerWarp = 4096
	warps := len(seq) / bytesPerWarp
	res, err := dev.Launch(simt.KernelConfig{Name: "basehist", Warps: warps}, func(w *simt.Warp) {
		base := uint64(seqPtr) + uint64(w.ID*bytesPerWarp)
		var local [4]uint64
		for off := 0; off < bytesPerWarp; off += simt.WarpSize {
			var addrs simt.Vec
			for lane := 0; lane < simt.WarpSize; lane++ {
				addrs[lane] = base + uint64(off+lane)
			}
			var vals simt.Vec
			w.LoadGlobal(simt.FullMask, &addrs, 1, &vals)
			// Ballot: which lanes hold G or C? (a warp-wide vote, like the
			// walk-state broadcast in the extension kernel)
			gc := w.Ballot(simt.FullMask, func(lane int) bool {
				b := byte(vals[lane])
				return b == 'G' || b == 'C'
			})
			_ = gc
			w.ExecN(simt.IInt, simt.FullMask, 2)
			for lane := 0; lane < simt.WarpSize; lane++ {
				c, _ := dna.Code(byte(vals[lane]))
				local[c]++
			}
		}
		// Flush the warp-private counts with four atomic adds from lane 0.
		for c := 0; c < 4; c++ {
			var addrs, delta simt.Vec
			addrs[0] = uint64(histPtr) + uint64(8*c)
			delta[0] = local[c]
			w.AtomicAdd(simt.LaneMask(0), &addrs, &delta, 8)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("histogram of %d bases across %d warps:\n", len(seq), warps)
	total := uint64(0)
	for c := 0; c < 4; c++ {
		n := dev.ReadU64(histPtr + simt.Ptr(8*c))
		total += n
		fmt.Printf("  %c: %d\n", dna.Alphabet[c], n)
	}
	fmt.Printf("  total %d ✓\n", total)

	a := roofline.Analyze(dev.Cfg, res)
	fmt.Printf("\nkernel characterization (instruction roofline):\n")
	fmt.Printf("  model time        %v (%s bound)\n", res.Time.Round(1e3), res.Bound)
	fmt.Printf("  warp GIPS         %.2f of %.1f peak\n", a.WarpGIPS, a.PeakGIPS)
	fmt.Printf("  intensity (L1)    %.4f warp instructions / transaction\n", a.IntensityL1)
	fmt.Printf("  predication       %.1f%% of lane slots active\n", 100*a.PredicationRatio)
	fmt.Printf("  global sectors    %d (coalesced 1B loads: 128 bytes -> 4 sectors per warp load)\n",
		res.GlobalSectors)
}
