package simt_test

import (
	"fmt"
	"math/rand"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/roofline"
	"mhm2sim/internal/simt"
)

// Program the simulated device directly, the way the local-assembly kernels
// do: one warp per 4 KiB block of a DNA sequence counts bases with coalesced
// one-byte loads and flushes its counts with atomic adds; the host reads the
// histogram back and the launch's instruction-roofline characterization.
// Every warp adds to the one shared histogram, a write no warp owns, so the
// launch is Sequential: pool warps may write only their own regions.
func Example() {
	dev := simt.NewDevice(simt.V100())
	defer dev.Close()

	rng := rand.New(rand.NewSource(5))
	seq := make([]byte, 1<<16)
	for i := range seq {
		seq[i] = dna.Alphabet[rng.Intn(4)]
	}
	seqPtr, err := dev.Malloc(int64(len(seq)))
	if err != nil {
		panic(err)
	}
	dev.MemcpyHtoD(seqPtr, seq)
	histPtr, err := dev.Malloc(4 * 8)
	if err != nil {
		panic(err)
	}

	const bytesPerWarp = 4096
	res, err := dev.Launch(simt.KernelConfig{Name: "basehist", Warps: len(seq) / bytesPerWarp, Sequential: true}, func(w *simt.Warp) {
		base := uint64(seqPtr) + uint64(w.ID*bytesPerWarp)
		var local [4]uint64
		for off := 0; off < bytesPerWarp; off += simt.WarpSize {
			var addrs, vals simt.Vec
			for lane := range addrs {
				addrs[lane] = base + uint64(off+lane)
			}
			w.LoadGlobal(simt.FullMask, &addrs, 1, &vals) // 32 bytes: one sector
			w.ExecN(simt.IInt, simt.FullMask, 2)          // decode + count
			for _, v := range vals {
				c, _ := dna.Code(byte(v))
				local[c]++
			}
		}
		// Flush the warp-private counts with four atomic adds from lane 0.
		for c := range local {
			var addrs, delta simt.Vec
			addrs[0], delta[0] = uint64(histPtr)+uint64(8*c), local[c]
			w.AtomicAdd(simt.LaneMask(0), &addrs, &delta, 8)
		}
	})
	if err != nil {
		panic(err)
	}

	total := uint64(0)
	for c := 0; c < 4; c++ {
		n := dev.ReadU64(histPtr + simt.Ptr(8*c))
		total += n
		fmt.Printf("%c: %d\n", dna.Alphabet[c], n)
	}
	fmt.Printf("total %d of %d bases\n", total, len(seq))

	a := roofline.Analyze(dev.Cfg, res)
	fmt.Printf("model time %v (%s bound), %.2f of %.1f warp GIPS\n", res.Time.Round(1e3), res.Bound, a.WarpGIPS, a.PeakGIPS)
	fmt.Printf("%d warp instructions over %d global sectors: intensity %.3f per L1 transaction\n",
		res.TotalWarpInstrs(), res.GlobalSectors, a.IntensityL1)
	// Output:
	// A: 16467
	// C: 16441
	// G: 16300
	// T: 16328
	// total 65536 of 65536 bases
	// model time 15µs (launch bound), 0.42 of 489.6 warp GIPS
	// 6208 warp instructions over 2048 global sectors: intensity 2.939 per L1 transaction
}
