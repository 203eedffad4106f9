package simt

import "testing"

// Micro-benchmarks for the warp-interpreter hot path: coalescing analysis,
// per-lane memory access, and launch overhead. These are the interpreter
// costs the modeled-GPU figure sweeps are made of. For numbers with
// spreads see the repo benchmark's la_dump workload (bench/).

// benchWarp runs fn inside a one-warp sequential launch so the benchmark
// exercises exactly the interpreter path kernels use.
func benchWarp(b *testing.B, localBytes int, fn func(w *Warp)) {
	b.Helper()
	dev := NewDevice(V100())
	if err := dev.Prealloc(1 << 20); err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Malloc(1 << 20); err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Launch(KernelConfig{
		Name: "bench", Warps: 1, Sequential: true, LocalBytesPerLane: localBytes,
	}, fn); err != nil {
		b.Fatal(err)
	}
}

var coalesceSink uint64

// BenchmarkCoalesce measures the sector-dedup analysis across the access
// patterns the kernels produce: contiguous lane runs (the overwhelmingly
// common case), strided entry probes, single-lane walks, and a
// pseudo-random gather (worst case).
func BenchmarkCoalesce(b *testing.B) {
	cases := []struct {
		name string
		mask Mask
		size int
		addr func(lane int) uint64
	}{
		{"contiguous4", FullMask, 4, func(l int) uint64 { return 1024 + uint64(4*l) }},
		{"contiguous8", FullMask, 8, func(l int) uint64 { return 1024 + uint64(8*l) }},
		{"stride32", FullMask, 8, func(l int) uint64 { return 1024 + uint64(32*l) }},
		{"overlap1", FullMask, 8, func(l int) uint64 { return 1024 + uint64(l) }},
		{"lane0", LaneMask(0), 4, func(l int) uint64 { return 1024 }},
		{"random", FullMask, 4, func(l int) uint64 {
			return uint64(l*2654435761) % (1 << 18)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var addrs Vec
			for lane := 0; lane < WarpSize; lane++ {
				addrs[lane] = c.addr(lane)
			}
			benchWarp(b, 0, func(w *Warp) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					coalesceSink += w.coalesce(c.mask, &addrs, c.size)
				}
			})
		})
	}
}

// BenchmarkLoadGlobalContiguous measures the full-warp contiguous 8-byte
// load — the raw key-block gather pattern (gpuht loadRaw, hashBytes).
func BenchmarkLoadGlobalContiguous(b *testing.B) {
	var addrs Vec
	for lane := 0; lane < WarpSize; lane++ {
		addrs[lane] = 4096 + uint64(8*lane)
	}
	benchWarp(b, 0, func(w *Warp) {
		var v Vec
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.LoadGlobal(FullMask, &addrs, 8, &v)
			coalesceSink += v[0]
		}
	})
}

// BenchmarkStoreGlobalContiguous is the store-side mirror (the table-clear
// pattern).
func BenchmarkStoreGlobalContiguous(b *testing.B) {
	var addrs Vec
	for lane := 0; lane < WarpSize; lane++ {
		addrs[lane] = 4096 + uint64(8*lane)
	}
	vals := Splat(^uint64(0))
	benchWarp(b, 0, func(w *Warp) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.StoreGlobal(FullMask, &addrs, 8, &vals)
		}
	})
}

// BenchmarkLoadGlobalLane0 measures the single-lane probe pattern of the
// mer-walk phase (31 lanes predicated off).
func BenchmarkLoadGlobalLane0(b *testing.B) {
	var addrs Vec
	addrs[0] = 4096
	m := LaneMask(0)
	benchWarp(b, 0, func(w *Warp) {
		var v Vec
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.LoadGlobal(m, &addrs, 4, &v)
			coalesceSink += v[0]
		}
	})
}

// BenchmarkLoadLocalUniform measures the uniform-offset local load of the
// hash staging scratch.
func BenchmarkLoadLocalUniform(b *testing.B) {
	offs := Splat(16)
	benchWarp(b, 64, func(w *Warp) {
		var v Vec
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.LoadLocal(FullMask, &offs, 8, &v)
			coalesceSink += v[0]
		}
	})
}

// BenchmarkLaunchOverhead measures the fixed cost of one kernel launch
// (64 warps, trivial body) in both scheduling modes. The allocs/op column
// is the one CI gates on: steady-state launches must not allocate.
func BenchmarkLaunchOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"sequential", true}, {"parallel", false}} {
		b.Run(mode.name, func(b *testing.B) {
			dev := NewDevice(V100())
			defer dev.Close()
			kern := func(w *Warp) { w.Exec(IInt, FullMask) }
			cfg := KernelConfig{Name: "noop", Warps: 64, Sequential: mode.seq, LocalBytesPerLane: 64}
			if _, err := dev.Launch(cfg, kern); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dev.Launch(cfg, kern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// perLaneFill is the warp-wide memset loop FillGlobal stands for, as
// gpuht.ClearEntriesWarp issued it before: one address vector and one
// StoreGlobal per 32 elements.
func perLaneFill(w *Warp, base Ptr, n, size int, val uint64) {
	vals := Splat(val)
	for first := 0; first < n; first += WarpSize {
		var mask Mask
		var addrs Vec
		for lane := 0; lane < WarpSize && first+lane < n; lane++ {
			mask |= LaneMask(lane)
			addrs[lane] = uint64(base) + uint64((first+lane)*size)
		}
		w.StoreGlobal(mask, &addrs, size, &vals)
	}
}

// BenchmarkFill clears one 3,600-entry hash table (32-byte entries, the
// size class of a bin-2 extension) as a 0xFF memset of 8-byte words: the
// per-lane store loop against FillGlobal.
func BenchmarkFill(b *testing.B) {
	const words = 3600 * 32 / 8
	b.Run("per_lane", func(b *testing.B) {
		benchWarp(b, 0, func(w *Warp) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perLaneFill(w, 4096, words, 8, ^uint64(0))
			}
		})
	})
	b.Run("fill", func(b *testing.B) {
		benchWarp(b, 0, func(w *Warp) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.FillGlobal(4096, words, 8, ^uint64(0), 0, 1)
			}
		})
	})
}

// BenchmarkLoadStrided measures the 8-byte key-block load of consecutive
// k-mers (lane l at base+l) through LoadGlobal on an address vector and
// through LoadGlobalStrided, on the full warp and on a sparse mask (the
// lanes still comparing in gpuht.bytesEqual).
func BenchmarkLoadStrided(b *testing.B) {
	for _, c := range []struct {
		name string
		mask Mask
	}{{"run32", FullMask}, {"sparse", 0x80412009}} {
		b.Run(c.name+"/vector", func(b *testing.B) {
			benchWarp(b, 0, func(w *Warp) {
				var v Vec
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var addrs Vec
					for lane := 0; lane < WarpSize; lane++ {
						addrs[lane] = 4099 + uint64(lane)
					}
					w.LoadGlobal(c.mask, &addrs, 8, &v)
					coalesceSink += v[31]
				}
			})
		})
		b.Run(c.name+"/strided", func(b *testing.B) {
			benchWarp(b, 0, func(w *Warp) {
				var v Vec
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.LoadGlobalStrided(c.mask, 4099, 1, 8, &v)
					coalesceSink += v[31]
				}
			})
		})
	}
}
