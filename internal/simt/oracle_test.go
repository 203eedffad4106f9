package simt

// The interpreter fast paths (fastpath.go, DESIGN.md §12) must be
// bit-identical to the straightforward implementations they replaced: same
// Stats counters, same device/local memory contents, same returned vectors.
// This file keeps those original implementations verbatim as a reference
// oracle (refWarp) and checks the live interpreter against it, both with
// directed cases and with a differential fuzzer over random op streams.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refWarp is the pre-fast-path warp interpreter, transplanted unchanged
// from the seed revision of warp.go. It runs against its own Device.
type refWarp struct {
	dev      *Device
	stats    Stats
	localMem []byte
	perLane  int
}

func newRefWarp(dev *Device, perLane int) *refWarp {
	return &refWarp{dev: dev, localMem: make([]byte, perLane*WarpSize), perLane: perLane}
}

func (w *refWarp) execN(c InstrClass, mask Mask, n int) {
	active := uint64(mask.Count())
	w.stats.WarpInstrs[c] += uint64(n)
	w.stats.ThreadInstrs[c] += uint64(n) * active
	w.stats.PredicatedOff += uint64(n) * (WarpSize - active)
}

func (w *refWarp) coalesce(mask Mask, addrs *Vec, size int) uint64 {
	var sectors [2 * WarpSize]uint64
	n := 0
	sb := uint64(w.dev.Cfg.SectorBytes)
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		for s := addrs[lane] / sb; s <= (addrs[lane]+uint64(size)-1)/sb; s++ {
			found := false
			for i := 0; i < n; i++ {
				if sectors[i] == s {
					found = true
					break
				}
			}
			if !found {
				sectors[n] = s
				n++
			}
		}
	}
	return uint64(n)
}

func (w *refWarp) effLatency(lat int) uint64 {
	mlp := w.dev.Cfg.MemParallelism
	if mlp < 1 {
		mlp = 1
	}
	return uint64((lat + mlp - 1) / mlp)
}

func (w *refWarp) addLocalTraffic(mask Mask, size int) {
	bytes := mask.Count() * size
	sb := w.dev.Cfg.SectorBytes
	w.stats.LocalSectors += uint64((bytes + sb - 1) / sb)
}

func (w *refWarp) loadGlobal(mask Mask, addrs *Vec, size int) Vec {
	w.execN(ILdGlobal, mask, 1)
	w.stats.GlobalSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effLatency(w.dev.Cfg.GlobalLatency)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = refLoadLE(w.dev.mem[addrs[lane]:], size)
		}
	}
	return out
}

func (w *refWarp) storeGlobal(mask Mask, addrs *Vec, size int, vals *Vec) {
	w.execN(IStGlobal, mask, 1)
	w.stats.GlobalSectors += w.coalesce(mask, addrs, size)
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			refStoreLE(w.dev.mem[addrs[lane]:], size, vals[lane])
		}
	}
}

func (w *refWarp) atomicCAS(mask Mask, addrs, compare, val *Vec, size int) Vec {
	w.execN(IAtomic, mask, 1)
	w.stats.AtomicSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effLatency(w.dev.Cfg.GlobalLatency)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		old := refLoadLE(w.dev.mem[addrs[lane]:], size)
		out[lane] = old
		if old == compare[lane] {
			refStoreLE(w.dev.mem[addrs[lane]:], size, val[lane])
		}
	}
	return out
}

func (w *refWarp) atomicAdd(mask Mask, addrs, delta *Vec, size int) Vec {
	w.execN(IAtomic, mask, 1)
	w.stats.AtomicSectors += w.coalesce(mask, addrs, size)
	w.stats.MaxSerialMemChain += w.effLatency(w.dev.Cfg.GlobalLatency)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		old := refLoadLE(w.dev.mem[addrs[lane]:], size)
		out[lane] = old
		refStoreLE(w.dev.mem[addrs[lane]:], size, old+delta[lane])
	}
	return out
}

func (w *refWarp) localAddr(lane int, off uint64) uint64 {
	return uint64(lane)*uint64(w.perLane) + off
}

func refLoadLE(b []byte, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func refStoreLE(b []byte, size int, v uint64) {
	for i := 0; i < size; i++ {
		b[i] = byte(v >> uint(8*i))
	}
}

func (w *refWarp) loadLocal(mask Mask, offs *Vec, size int) Vec {
	w.execN(ILdLocal, mask, 1)
	w.addLocalTraffic(mask, size)
	w.stats.MaxSerialMemChain += w.effLatency(w.dev.Cfg.LocalLatency)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = refLoadLE(w.localMem[w.localAddr(lane, offs[lane]):], size)
		}
	}
	return out
}

func (w *refWarp) storeLocal(mask Mask, offs *Vec, size int, vals *Vec) {
	w.execN(IStLocal, mask, 1)
	w.addLocalTraffic(mask, size)
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			refStoreLE(w.localMem[w.localAddr(lane, offs[lane]):], size, vals[lane])
		}
	}
}

func (w *refWarp) ballot(mask Mask, pred func(lane int) bool) Mask {
	w.execN(IBallot, mask, 1)
	var out Mask
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) && pred(lane) {
			out |= LaneMask(lane)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Directed coalesce differential: every access shape the kernels produce,
// plus adversarial ones, against the reference linear scan.

func TestCoalesceMatchesReference(t *testing.T) {
	dev := NewDevice(V100())
	var w Warp
	w.reset(dev, 0, 0)
	ref := newRefWarp(dev, 0)

	mk := func(f func(lane int) uint64) Vec {
		var v Vec
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	cases := []struct {
		name  string
		mask  Mask
		addrs Vec
		size  int
	}{
		{"contiguous4", FullMask, mk(func(l int) uint64 { return 1000 + uint64(4*l) }), 4},
		{"contiguous8", FullMask, mk(func(l int) uint64 { return 1000 + uint64(8*l) }), 8},
		{"contiguous8_unaligned", FullMask, mk(func(l int) uint64 { return 1003 + uint64(8*l) }), 8},
		{"contiguous1", FullMask, mk(func(l int) uint64 { return 7 + uint64(l) }), 1},
		{"stride32", FullMask, mk(func(l int) uint64 { return uint64(32 * l) }), 4},
		{"stride48", FullMask, mk(func(l int) uint64 { return uint64(48 * l) }), 8},
		{"overlap1", FullMask, mk(func(l int) uint64 { return 500 + uint64(l) }), 8},
		{"same_addr", FullMask, mk(func(l int) uint64 { return 64 }), 4},
		{"descending", FullMask, mk(func(l int) uint64 { return uint64(8 * (WarpSize - l)) }), 8},
		{"lane0", LaneMask(0), mk(func(l int) uint64 { return 12345 }), 8},
		{"lane31", LaneMask(31), mk(func(l int) uint64 { return 77 }), 2},
		{"empty", 0, Vec{}, 8},
		{"sparse_sorted", 0x80010001, mk(func(l int) uint64 { return uint64(100 * l) }), 4},
		{"partial_run", 0x0000ffff, mk(func(l int) uint64 { return 256 + uint64(8*l) }), 8},
		{"dup_sorted", FullMask, mk(func(l int) uint64 { return uint64(8 * (l / 2)) }), 8},
		{"sector_straddle", FullMask, mk(func(l int) uint64 { return 28 + uint64(64*l) }), 8},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		cases = append(cases, struct {
			name  string
			mask  Mask
			addrs Vec
			size  int
		}{
			fmt.Sprintf("random%d", i),
			Mask(rng.Uint32()),
			mk(func(l int) uint64 { return uint64(rng.Intn(1 << 16)) }),
			1 << rng.Intn(4),
		})
	}
	for _, tc := range cases {
		got := w.coalesce(tc.mask, &tc.addrs, tc.size)
		want := ref.coalesce(tc.mask, &tc.addrs, tc.size)
		if got != want {
			t.Errorf("%s: coalesce = %d, reference = %d", tc.name, got, want)
		}
	}

	// Stamp wrap-around: the scan above left slots stamped with generation
	// 1, 2, …; when the 32-bit generation wraps back to 1 they must read as
	// empty, or the same sectors count as already seen.
	desc := mk(func(l int) uint64 { return uint64(8 * (WarpSize - l)) })
	w.coGen = 0
	w.coalesce(FullMask, &desc, 8) // stamps its sectors with generation 1
	w.coGen = math.MaxUint32
	if got, want := w.coalesce(FullMask, &desc, 8), ref.coalesce(FullMask, &desc, 8); got != want || w.coGen != 1 {
		t.Errorf("stamp wrap-around: coalesce = %d (generation %d), reference = %d", got, w.coGen, want)
	}

	// Shape-declared ops (shaped.go): each directed shape runs as a one-op
	// stream through checkOps — full Stats, outputs and memory against the
	// per-lane ops it stands for — on every device config.
	vals := mk(func(l int) uint64 { return 0x0123456789abcdef * uint64(l+1) })
	shaped := []warpOp{
		{kind: opLdStrided, mask: 0x80010001, base: 100, stride: 1, size: 8},           // sparse mask, overlapping
		{kind: opLdStrided, mask: 0x5a5a5a5a, base: 64, stride: 100, size: 4},          // sparse mask, stride > size
		{kind: opLdStrided, mask: FullMask, base: 64, stride: 48, size: 8},             // stride > size
		{kind: opLdStrided, mask: FullMask, base: 64, stride: 16, size: 8},             // gaps are whole 8-byte sectors
		{kind: opLdStrided, mask: FullMask, base: 24, stride: 40, size: 8},             // gaps are whole 32-byte sectors
		{kind: opLdStrided, mask: PrefixMask(8), base: 120, stride: 136, size: 8},      // gaps are whole 128-byte sectors
		{kind: opLdStrided, mask: FullMask, base: 64, stride: 0, size: 4},              // every lane one address
		{kind: opLdStrided, mask: PrefixMask(21), base: 100, stride: 1, size: 8},       // run ends one byte into a sector
		{kind: opLdStrided, mask: PrefixMask(20), base: 100, stride: 1, size: 8},       // run ends on the sector edge
		{kind: opLdStrided, mask: 0x00ffff00, base: 7, stride: 8, size: 8},             // contiguous run not from lane 0
		{kind: opLdStrided, mask: LaneMask(31), base: 30, stride: 64, size: 2},         // single lane
		{kind: opLdStrided, mask: FullMask &^ 1, base: ^uint64(0), stride: 1, size: 1}, // base underflows, lane 0 off
		{kind: opLdStrided, mask: 0, base: 64, stride: 8, size: 8},                     // empty mask
		{kind: opStStrided, mask: FullMask, base: 128, stride: 32, size: 8},            // one field of 32 entries
		{kind: opStStrided, mask: PrefixMask(9), base: 1001, stride: 2, size: 4},       // overlapping stores, lane order
		{kind: opFill, base: 1024, n: 33, size: 8, parts: 1},                           // tail chunk of 1 lane
		{kind: opFill, base: 1024, n: 63, size: 4, parts: 1},                           // tail chunk of 31 lanes
		{kind: opFill, base: 1024, n: 0, size: 8, parts: 1},                            // nothing to do
		{kind: opFill, base: 1003, n: 100, size: 8, parts: 1},                          // unaligned base
		{kind: opFill, base: 7, n: 200, size: 1, parts: 1},                             // chunk smaller than a 128-byte sector
		{kind: opFill, base: 64, n: 300, size: 8, part: 1, parts: 3},                   // grid-strided, owns the tail
		{kind: opFill, base: 64, n: 300, size: 2, part: 2, parts: 3},                   // grid-strided, tail is another warp's
		{kind: opFill, base: 64, n: 100, size: 4, part: 4, parts: 1},                   // starts past the end
	}
	for i := range shaped {
		shaped[i].vals = vals
		for _, cfg := range diffConfigs() {
			checkOps(t, cfg, shaped[i:i+1], int64(i))
		}
	}
}

// ---------------------------------------------------------------------------
// Differential op-stream driver: the same decoded op sequence runs through a
// live Launch and through refWarp on a second device seeded with identical
// memory; stats, device memory, local memory, and every returned vector must
// match exactly.

const (
	diffArena   = 4096
	diffPerLane = 64
)

const (
	opFill      = 8  // FillGlobal(base, n, size, vals[0], part, parts)
	opLdStrided = 9  // LoadGlobalStrided(mask, base, stride, size)
	opStStrided = 10 // StoreGlobalStrided(mask, base, stride, size, vals)
	numOpKinds  = 11
)

// outFill is what every out vector holds before an op writes to it: the
// inactive lanes must still hold it afterwards (the contract on Vec).
var outFill = func() (v Vec) {
	for lane := range v {
		v[lane] = 0xfeedface00000000 + uint64(lane)
	}
	return v
}()

// survive is the out vector an op leaves when the reference returned v: v in
// the active lanes, outFill in the others.
func survive(mask Mask, v Vec) Vec {
	for lane := range v {
		if !mask.Has(lane) {
			v[lane] = outFill[lane]
		}
	}
	return v
}

type warpOp struct {
	kind  int // 0 ldG 1 stG 2 cas 3 add 4 ldL 5 stL 6, 7 ballot, then the shaped ops above
	mask  Mask
	addrs Vec
	vals  Vec
	cmp   Vec
	size  int

	// Shaped ops only.
	base, stride   uint64
	n, part, parts int
}

// laneAddrs is the address vector a strided op stands for.
func (op *warpOp) laneAddrs() Vec {
	var a Vec
	for lane := range a {
		a[lane] = op.base + uint64(lane)*op.stride
	}
	return a
}

// decodeOps turns a fuzz byte stream into a bounded op sequence with
// addresses inside the arena and local offsets inside each lane's slice.
func decodeOps(data []byte) []warpOp {
	var ops []warpOp
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	u16 := func() uint64 { return uint64(next()) | uint64(next())<<8 }
	for pos < len(data) && len(ops) < 64 {
		var op warpOp
		op.kind = int(next() % numOpKinds)
		op.mask = Mask(uint32(u16()) | uint32(u16())<<16)
		op.size = 1 << (next() % 4)
		base := u16() % (diffArena - 8*WarpSize - 8)
		pattern := next() % 5
		seed := u16()
		for lane := 0; lane < WarpSize; lane++ {
			switch pattern {
			case 0: // contiguous unit stride
				op.addrs[lane] = base + uint64(op.size*lane)
			case 1: // strided
				op.addrs[lane] = base + uint64(lane)*(seed%64)
			case 2: // uniform (same address)
				op.addrs[lane] = base
			case 3: // descending
				op.addrs[lane] = base + uint64(op.size*(WarpSize-1-lane))
			default: // scattered
				op.addrs[lane] = (base + seed*uint64(lane)*2654435761) % (diffArena - 8)
			}
			if op.addrs[lane] > diffArena-8 {
				op.addrs[lane] = diffArena - 8
			}
			op.vals[lane] = seed*uint64(lane+1) + uint64(pattern)
			op.cmp[lane] = op.vals[lane] % 3 // frequent CAS hits on 0-init mem
		}
		if op.kind == 4 || op.kind == 5 { // local: per-lane offsets
			for lane := 0; lane < WarpSize; lane++ {
				op.addrs[lane] = op.addrs[lane] % (diffPerLane - 8)
			}
		}
		switch op.kind {
		case opFill: // any element count that fits, split over 1–3 warps
			op.base = base % (diffArena / 2)
			op.n = int(seed % 300)
			if room := (diffArena - int(op.base)) / op.size; op.n > room {
				op.n = room
			}
			op.part, op.parts = int(pattern), 1+int(seed>>9)%3
		case opLdStrided, opStStrided: // stride 0, ≤ size and > size all occur
			op.stride = seed % 64
			op.base = base % (diffArena - 64*WarpSize - 8)
			if pattern == 4 { // base one stride below, lane 0 masked off: it may underflow
				op.base -= op.stride
				op.mask &^= 1
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// applyReal runs ops on the live warp. Every op starts from an out vector
// holding outFill and the vector it leaves is the op's result: ops without
// an output leave it alone, as the reference side does.
func applyReal(w *Warp, ops []warpOp) []Vec {
	outs := make([]Vec, 0, len(ops))
	for i := range ops {
		op := &ops[i]
		out := outFill
		switch op.kind {
		case 0:
			w.LoadGlobal(op.mask, &op.addrs, op.size, &out)
		case 1:
			w.StoreGlobal(op.mask, &op.addrs, op.size, &op.vals)
		case 2:
			w.AtomicCAS(op.mask, &op.addrs, &op.cmp, &op.vals, op.size, &out)
		case 3:
			w.AtomicAdd(op.mask, &op.addrs, &op.vals, op.size)
		case 4:
			w.LoadLocal(op.mask, &op.addrs, op.size, &out)
		case 5:
			w.StoreLocal(op.mask, &op.addrs, op.size, &op.vals)
		case opFill:
			w.FillGlobal(Ptr(op.base), op.n, op.size, op.vals[0], op.part, op.parts)
		case opLdStrided:
			w.LoadGlobalStrided(op.mask, op.base, op.stride, op.size, &out)
		case opStStrided:
			w.StoreGlobalStrided(op.mask, op.base, op.stride, op.size, &op.vals)
		default:
			out = Vec{uint64(w.Ballot(op.mask, func(lane int) bool { return op.vals[lane]&1 == 1 }))}
		}
		outs = append(outs, out)
	}
	return outs
}

// refFill is the loop FillGlobal stands for, issued store by store.
func (w *refWarp) refFill(base uint64, n, size int, val uint64, part, parts int) {
	vals := Splat(val)
	for first := part * WarpSize; first < n; first += parts * WarpSize {
		var mask Mask
		var addrs Vec
		for lane := 0; lane < WarpSize && first+lane < n; lane++ {
			mask |= LaneMask(lane)
			addrs[lane] = base + uint64((first+lane)*size)
		}
		w.storeGlobal(mask, &addrs, size, &vals)
	}
}

// applyRef replays ops on the reference warp, a shaped op as the per-lane
// instructions it stands for.
func applyRef(w *refWarp, ops []warpOp) []Vec {
	outs := make([]Vec, 0, len(ops))
	for i := range ops {
		op := &ops[i]
		out := outFill
		switch op.kind {
		case 0:
			out = survive(op.mask, w.loadGlobal(op.mask, &op.addrs, op.size))
		case 1:
			w.storeGlobal(op.mask, &op.addrs, op.size, &op.vals)
		case 2:
			out = survive(op.mask, w.atomicCAS(op.mask, &op.addrs, &op.cmp, &op.vals, op.size))
		case 3:
			w.atomicAdd(op.mask, &op.addrs, &op.vals, op.size) // the live op keeps no prior values
		case 4:
			out = survive(op.mask, w.loadLocal(op.mask, &op.addrs, op.size))
		case 5:
			w.storeLocal(op.mask, &op.addrs, op.size, &op.vals)
		case opFill:
			w.refFill(op.base, op.n, op.size, op.vals[0], op.part, op.parts)
		case opLdStrided:
			addrs := op.laneAddrs()
			out = survive(op.mask, w.loadGlobal(op.mask, &addrs, op.size))
		case opStStrided:
			addrs := op.laneAddrs()
			w.storeGlobal(op.mask, &addrs, op.size, &op.vals)
		default:
			out = Vec{uint64(w.ballot(op.mask, func(lane int) bool { return op.vals[lane]&1 == 1 }))}
		}
		outs = append(outs, out)
	}
	return outs
}

// checkDifferential runs one decoded op stream both ways and reports the
// first divergence. cfg varies so the fast paths are exercised across sector
// sizes and memory-parallelism values.
func checkDifferential(t *testing.T, cfg DeviceConfig, data []byte) {
	t.Helper()
	checkOps(t, cfg, decodeOps(data), int64(len(data)))
}

// checkOps runs ops through a live Launch and through refWarp on devices
// whose arenas start as the same memSeed-random bytes.
func checkOps(t *testing.T, cfg DeviceConfig, ops []warpOp, memSeed int64) {
	t.Helper()
	if len(ops) == 0 {
		return
	}

	seedMem := make([]byte, diffArena)
	rng := rand.New(rand.NewSource(memSeed))
	rng.Read(seedMem)

	liveDev := NewDevice(cfg)
	if _, err := liveDev.Malloc(diffArena); err != nil {
		t.Fatal(err)
	}
	liveDev.MemcpyHtoD(0, seedMem)
	refDev := NewDevice(cfg)
	if _, err := refDev.Malloc(diffArena); err != nil {
		t.Fatal(err)
	}
	refDev.MemcpyHtoD(0, seedMem)

	var liveOuts []Vec
	var liveLocal []byte
	res, err := liveDev.Launch(KernelConfig{
		Name:              "diff",
		Warps:             1,
		Sequential:        true,
		LocalBytesPerLane: diffPerLane,
	}, func(w *Warp) {
		liveOuts = applyReal(w, ops)
		// The warp context goes back to a sync.Pool, which may drop it at
		// any time; its local arena is only reachable from in here.
		liveLocal = w.localMem
	})
	if err != nil {
		t.Fatal(err)
	}

	ref := newRefWarp(refDev, diffPerLane)
	ref.stats.Warps = 1
	ref.stats.Kernel = res.Stats.Kernel // label, set by Launch, not by ops
	refOuts := applyRef(ref, ops)

	if res.Stats != ref.stats {
		t.Fatalf("stats diverge:\nlive %+v\nref  %+v\nops %+v", res.Stats, ref.stats, ops)
	}
	for i := range refOuts {
		if liveOuts[i] != refOuts[i] {
			t.Fatalf("op %d (%+v): outputs diverge\nlive %v\nref  %v", i, ops[i], liveOuts[i], refOuts[i])
		}
	}
	if !bytes.Equal(liveDev.mem[:diffArena], refDev.mem[:diffArena]) {
		t.Fatalf("device memory diverges (ops %+v)", ops)
	}
	if !bytes.Equal(liveLocal, ref.localMem) {
		t.Fatalf("local memory diverges (ops %+v)", ops)
	}
}

func diffConfigs() []DeviceConfig {
	v := V100()
	narrow := v
	narrow.SectorBytes = 8
	narrow.MemParallelism = 1
	wide := v
	wide.SectorBytes = 128
	wide.MemParallelism = 3
	return []DeviceConfig{v, narrow, wide}
}

func TestWarpFastpathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		data := make([]byte, 16+rng.Intn(512))
		rng.Read(data)
		for _, cfg := range diffConfigs() {
			checkDifferential(t, cfg, data)
		}
	}
}

// FuzzWarpFastpath is the ISSUE's differential fuzzer: arbitrary op streams
// must leave the live interpreter and the reference oracle in bit-identical
// states — same Stats, same memory, same outputs.
func FuzzWarpFastpath(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 3, 16, 0, 0, 1, 2})
	f.Add([]byte{2, 0x0f, 0x00, 0xf0, 0x00, 2, 0, 1, 4, 99, 9})
	f.Add(bytes.Repeat([]byte{5, 0xaa, 0x55, 0xaa, 0x55, 1, 8, 0, 2, 7, 1}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range diffConfigs() {
			checkDifferential(t, cfg, data)
		}
	})
}

// ---------------------------------------------------------------------------
// Satellite guards.

func TestLaunchNegativeLocalBytesPerLane(t *testing.T) {
	dev := NewDevice(V100())
	_, err := dev.Launch(KernelConfig{Warps: 1, LocalBytesPerLane: -1, Sequential: true}, func(w *Warp) {
		t.Error("kernel ran despite invalid config")
	})
	if err == nil {
		t.Fatal("Launch accepted negative LocalBytesPerLane")
	}
}

// TestLaunchRejectsBadSectorBytes: NewDevice takes any DeviceConfig, so
// Launch is where a sector size the interpreter cannot shift by is refused —
// before any warp runs, instead of a division by zero inside the kernel.
func TestLaunchRejectsBadSectorBytes(t *testing.T) {
	for _, sb := range []int{0, 4, 24, 48, -32, 8, 32, 128} {
		cfg := V100()
		cfg.SectorBytes = sb
		dev := NewDevice(cfg)
		if _, err := dev.Malloc(4096); err != nil {
			t.Fatal(err)
		}
		ran := false
		_, err := dev.Launch(KernelConfig{Warps: 1}, func(w *Warp) {
			ran = true
			var addrs, out Vec
			w.LoadGlobal(FullMask, &addrs, 8, &out)
		})
		if ok := sb >= 8 && sb&(sb-1) == 0; ok != (err == nil) || ok != ran || (!ok && !errors.Is(err, ErrSectorBytes)) {
			t.Errorf("SectorBytes %d: err = %v, kernel ran = %v", sb, err, ran)
		}
	}
}

// TestUnsupportedAccessSizePanics: every sized memory op — global, strided,
// local, shared, fill — refuses a size other than 1, 2, 4 or 8 through
// badSize; none decodes it some other way.
func TestUnsupportedAccessSizePanics(t *testing.T) {
	var v, out Vec
	ops := map[string]func(w *Warp){
		"LoadGlobal":         func(w *Warp) { w.LoadGlobal(FullMask, &v, 3, &out) },
		"AtomicAdd":          func(w *Warp) { w.AtomicAdd(FullMask, &v, &v, 16) },
		"LoadGlobalStrided":  func(w *Warp) { w.LoadGlobalStrided(FullMask, 0, 8, 3, &out) },
		"StoreGlobalStrided": func(w *Warp) { w.StoreGlobalStrided(FullMask, 0, 8, 0, &v) },
		"FillGlobal":         func(w *Warp) { w.FillGlobal(0, 4, 5, 0, 0, 1) },
		"LoadLocal":          func(w *Warp) { w.LoadLocal(FullMask, &v, 3, &out) },
		"StoreLocal":         func(w *Warp) { w.StoreLocal(FullMask, &v, 6, &v) },
		"LoadShared":         func(w *Warp) { w.LoadShared(FullMask, &v, 7) },
		"StoreShared":        func(w *Warp) { w.StoreShared(FullMask, &v, -1, &v) },
	}
	for name, op := range ops {
		dev := NewDevice(V100())
		if _, err := dev.Malloc(4096); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an unsupported access size", name)
				}
			}()
			_, _ = dev.Launch(KernelConfig{Warps: 1, Sequential: true, LocalBytesPerLane: 64}, op)
		}()
	}
}

func TestShflGuard(t *testing.T) {
	dev := NewDevice(V100())
	res, err := dev.Launch(KernelConfig{Warps: 1, Sequential: true}, func(w *Warp) {
		vals := Splat(0xdead)
		vals[3] = 42

		// Valid source lane: broadcast to active lanes only.
		out := w.Shfl(0x0000ffff, &vals, 3)
		for lane := 0; lane < WarpSize; lane++ {
			want := uint64(0)
			if lane < 16 {
				want = 42
			}
			if out[lane] != want {
				t.Errorf("Shfl valid: lane %d = %d, want %d", lane, out[lane], want)
			}
		}

		// Inactive source lane and out-of-range lanes: defined all-zero
		// result (undefined behavior on real hardware).
		for _, src := range []int{16, -1, WarpSize, 1000} {
			if out := w.Shfl(0x0000ffff, &vals, src); out != (Vec{}) {
				t.Errorf("Shfl guarded src %d: got %v, want zero vector", src, out)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guarded shuffles still count as issued warp instructions.
	if got := res.Stats.WarpInstrs[IShfl]; got != 5 {
		t.Errorf("IShfl warp instrs = %d, want 5", got)
	}
}

// TestLaunchSteadyStateAllocs is the CI allocation gate: once the device's
// launch states are warm, Launch must not allocate — in sequential, parallel
// and ordered-commit mode (the ring and the Scratch records its slots hold
// are pooled with the launch state). A regression here silently reintroduces
// per-launch garbage on the figure-suite hot path.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	kern := func(w *Warp) {
		if w.Scratch == nil {
			w.Scratch = new(int)
		}
		var addrs, v Vec
		w.LoadGlobal(FullMask, &addrs, 8, &v)
	}
	commit := func(w *Warp) { *w.Scratch.(*int) = w.ID }
	for _, mode := range []KernelConfig{
		{Name: "sequential", Warps: 64, Sequential: true},
		{Name: "parallel", Warps: 64},
		{Name: "ordered", Warps: 2*commitRing + 1, Commit: commit},
	} {
		t.Run(mode.Name, func(t *testing.T) {
			dev := NewDevice(V100())
			if _, err := dev.Malloc(4096); err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			mode.LocalBytesPerLane = 64
			launch := func() {
				if _, err := dev.Launch(mode, kern); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // warm the launch state and the warp pool
				launch()
			}
			if avg := testing.AllocsPerRun(50, launch); avg > 0 {
				t.Errorf("%s Launch allocates %.1f objects per call at steady state, want 0", mode.Name, avg)
			}
		})
	}
}
