package locassm

import (
	"bytes"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/gpuht"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/murmur"
)

// This file is the zero-allocation host local-assembly engine: the §3.2
// memory-minimization ideas (exact-sized flat tables, pointer-compressed
// keys, Fig 6) ported back to the CPU the way MetaHipMer2's C++ host tables
// work. It replaces the map[string]gpuht.Ext reference implementation
// (kept as a test-only oracle in mapref_test.go) on every host path:
// RunCPU, the cpu engine, and the dist per-rank CPU drivers.
//
// Three structures make the engine allocation-free in steady state:
//
//   - flatTable: open-addressing + linear-probing table keyed by
//     murmur.Hash64A over pointer-compressed keys — each entry stores the
//     (read, pos) coordinates of its k-mer inside the contig's candidate
//     reads instead of a copy of the k-mer bytes, and key comparison reads
//     the bytes back through those coordinates (the host analogue of the
//     device table's arena offsets). Capacity follows gpuht.HostSlots over
//     the exact per-build k-mer count Σ max(0, len(read)−k+1) — the §3.2
//     (l−k+1)·r bound evaluated on the actual reads.
//   - visitedSet: the walk's loop detector, an open-addressed set probed
//     with the rolling 2-bit packed cursor's hash (kmer.Kmer.HashK) and
//     compared through walk-buffer offsets — again no k-mer copies.
//   - cpuWorkspace: per-worker scratch (table slots, visited slots, walk
//     buffer, reverse-complement arenas) that the cpu engine keeps for its
//     lifetime, so once a worker has warmed up, extendContigCPU allocates
//     nothing beyond the Result extension slices it must hand to the caller.
//
// Both structures use generation stamps instead of clearing: bumping gen
// invalidates every slot in O(1), so a workspace that once served a huge
// bin-3 contig does not pay an O(capacity) memset for every later small
// contig.

// flatSeed seeds the table hash; visitedSeed seeds the cursor hash. They
// only need to be fixed, not related: table probes hash raw window bytes
// (so N-containing keys behave exactly like the map reference), visited
// probes hash the packed cursor when it is pure ACGT.
const (
	flatSeed    = 0x5eed1ab5
	visitedSeed = 0xf1a77ab1e5eed
)

// flatEntryEmptyRead never indexes a real read (len(reads) is bounded far
// below 2^32); it marks slots whose gen matches but hold no key yet.
const flatEntryEmptyRead = 0xffffffff

// flatEntry is one slot of the flat table: a generation stamp, a 32-bit
// hash tag for cheap mismatch rejection, the pointer-compressed key, and
// the extension object (36 bytes vs the map's string header + bucket
// overhead per key).
type flatEntry struct {
	gen  uint32
	tag  uint32
	read uint32 // index into the candidate reads
	pos  uint32 // k-mer start offset within that read
	ext  gpuht.Ext
}

// flatTable is the Algorithm 1 table over one side's candidate reads.
type flatTable struct {
	slots []flatEntry
	mask  uint64
	gen   uint32
}

// reset prepares the table for a build of at most nKmers keys, growing the
// slot array only when a bigger build than any before arrives (amortized
// zero allocations) and invalidating old entries by bumping gen.
func (t *flatTable) reset(nKmers int) {
	want := gpuht.HostSlots(nKmers)
	if want > len(t.slots) {
		t.slots = make([]flatEntry, want)
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 { // gen wrapped: stamps from 2^32 builds ago could alias
		for i := range t.slots {
			t.slots[i] = flatEntry{}
		}
		t.gen = 1
	}
	if len(t.slots) > 0 {
		t.mask = uint64(len(t.slots) - 1)
	} else {
		t.mask = 0
	}
}

// insert returns the extension object for key reads[ri].Seq[pos:pos+k],
// claiming a fresh slot on first sight. The caller guarantees reset was
// sized for every key of the build, so the probe always terminates.
func (t *flatTable) insert(reads []dna.Read, ri, pos uint32, k int) *gpuht.Ext {
	key := reads[ri].Seq[pos : pos+uint32(k)]
	h := murmur.Hash64A(key, flatSeed)
	tag := uint32(h)
	idx := h & t.mask
	for {
		e := &t.slots[idx]
		if e.gen != t.gen {
			*e = flatEntry{gen: t.gen, tag: tag, read: ri, pos: pos}
			return &e.ext
		}
		if e.tag == tag && e.read != flatEntryEmptyRead &&
			bytes.Equal(reads[e.read].Seq[e.pos:e.pos+uint32(k)], key) {
			return &e.ext
		}
		idx = (idx + 1) & t.mask
	}
}

// lookup probes for the k bytes of cur (the walk cursor window), comparing
// candidate entries through their pointer-compressed coordinates.
func (t *flatTable) lookup(reads []dna.Read, cur []byte, k int) (gpuht.Ext, bool) {
	if len(t.slots) == 0 {
		return gpuht.Ext{}, false
	}
	h := murmur.Hash64A(cur, flatSeed)
	tag := uint32(h)
	idx := h & t.mask
	for {
		e := &t.slots[idx]
		if e.gen != t.gen {
			return gpuht.Ext{}, false
		}
		if e.tag == tag && bytes.Equal(reads[e.read].Seq[e.pos:e.pos+uint32(k)], cur) {
			return e.ext, true
		}
		idx = (idx + 1) & t.mask
	}
}

// visitedSlot records one visited walk cursor as its hash plus the cursor's
// start offset in the walk buffer — the walk buffer is append-only, so the
// offset is a stable pointer-compressed key.
type visitedSlot struct {
	hash uint64
	gen  uint32
	off  uint32
}

// visitedSet is the open-addressed loop detector (Algorithm 2's
// loop_exists) replacing map[string]bool.
type visitedSet struct {
	slots []visitedSlot
	mask  uint64
	gen   uint32
}

// reset prepares the set for a walk of at most n insertions.
func (v *visitedSet) reset(n int) {
	want := gpuht.HostSlots(n)
	if want > len(v.slots) {
		v.slots = make([]visitedSlot, want)
		v.gen = 0
	}
	v.gen++
	if v.gen == 0 {
		for i := range v.slots {
			v.slots[i] = visitedSlot{}
		}
		v.gen = 1
	}
	v.mask = uint64(len(v.slots) - 1)
}

// seen reports whether the mer bytes at buf[off:off+mer] (hashing to h)
// were visited before, inserting them if not — the map reference's
// "if visited[cur] return; visited[cur] = true" in one probe.
func (v *visitedSet) seen(buf []byte, h uint64, off uint32, mer int) bool {
	idx := h & v.mask
	for {
		s := &v.slots[idx]
		if s.gen != v.gen {
			*s = visitedSlot{hash: h, gen: v.gen, off: off}
			return false
		}
		if s.hash == h && bytes.Equal(buf[s.off:s.off+uint32(mer)], buf[off:off+uint32(mer)]) {
			return true
		}
		idx = (idx + 1) & v.mask
	}
}

// cpuWorkspace is one worker's reusable scratch; everything inside is sized
// high-water-mark style so steady-state extends allocate nothing.
type cpuWorkspace struct {
	table   flatTable
	visited visitedSet
	buf     []byte // walk buffer (contig tail + extensions)
	rcCtg   []byte // reverse-complemented contig tail for the left side
	rcReads []dna.Read
	rcArena []byte // backing store for rcReads' Seq/Qual slices
}

// cursor is the walk's rolling 2-bit packed position. validRun counts
// consecutive unambiguous bases ending at the cursor, so the packed form is
// trusted only once the window has shifted fully onto ACGT bases; until
// then (possible only while ambiguous bytes from the original contig tail
// drain out) hashing falls back to the raw window bytes, keeping N-bearing
// windows exactly as distinguishable as the map reference's strings.
type cursor struct {
	km       kmer.Kmer
	validRun int
}

// load packs the window (the last mer bytes of buf).
func (c *cursor) load(window []byte, mer int) {
	c.km = kmer.Kmer{}
	c.validRun = 0
	for _, b := range window {
		if code, ok := dna.Code(b); ok {
			c.km = c.km.Append(mer, code)
			c.validRun++
		} else {
			c.km = kmer.Kmer{}
			c.validRun = 0
		}
	}
}

// push rolls the cursor one base to the right; base is a 2-bit code (walk
// extensions are always unambiguous).
func (c *cursor) push(base byte, mer int) {
	c.km = c.km.Append(mer, base)
	if c.validRun < mer {
		c.validRun++
	}
}

// hash returns the visited-set hash of the current window. A pure-ACGT
// window hashes its packed form (one Hash64Word pair for mer ≤ 64); a
// window still holding ambiguous bytes hashes raw. Byte-equal windows are
// either both pure or both ambiguous, so equal windows always hash equal.
func (c *cursor) hash(window []byte, mer int) uint64 {
	if c.validRun >= mer {
		return c.km.HashK(mer, visitedSeed)
	}
	return murmur.Hash64A(window, visitedSeed)
}

// buildTable is Algorithm 1 on the flat table: bit-identical accumulation
// to the map reference (same read/offset order, same Ext arithmetic), no
// per-key string materialization.
func (ws *cpuWorkspace) buildTable(reads []dna.Read, k, qualCutoff int, wc *WorkCounts) {
	wc.TableBuilds++
	nKmers := 0
	for ri := range reads {
		if n := len(reads[ri].Seq) - k + 1; n > 0 {
			nKmers += n
		}
	}
	ws.table.reset(nKmers)
	for ri := range reads {
		seq, qual := reads[ri].Seq, reads[ri].Qual
		for i := 0; i+k <= len(seq); i++ {
			wc.KmersInserted++
			e := ws.table.insert(reads, uint32(ri), uint32(i), k)
			e.Count++
			if i+k < len(seq) {
				c, ok := dna.Code(seq[i+k])
				if ok {
					if dna.QualScore(qual[i+k]) >= qualCutoff {
						e.Hi[c]++
					} else {
						e.Lo[c]++
					}
				}
			}
		}
	}
}

// walk is Algorithm 2 against the flat table, extending ws.buf in place.
// It mirrors the map reference step for step: max-length check, visited
// probe, table lookup, DecideExt, append.
func (ws *cpuWorkspace) walk(tailLen, mer int, reads []dna.Read, cfg *Config, wc *WorkCounts) (WalkState, int64) {
	ws.visited.reset(cfg.MaxWalkLen + 1)
	var cur cursor
	cur.load(ws.buf[len(ws.buf)-mer:], mer)
	steps := int64(0)
	for {
		if len(ws.buf)-tailLen >= cfg.MaxWalkLen {
			return WalkMaxLen, steps
		}
		window := ws.buf[len(ws.buf)-mer:]
		off := uint32(len(ws.buf) - mer)
		if ws.visited.seen(ws.buf, cur.hash(window, mer), off, mer) {
			return WalkLoop, steps
		}

		wc.Lookups++
		e, ok := ws.table.lookup(reads, window, mer)
		if !ok {
			return WalkDeadEnd, steps
		}
		base, st := DecideExt(e, cfg.MinViableScore)
		switch st {
		case StepEnd:
			return WalkDeadEnd, steps
		case StepFork:
			return WalkFork, steps
		}
		ws.buf = append(ws.buf, dna.Alphabet[base])
		cur.push(base, mer)
		steps++
	}
}

// grownTo returns b resized to n bytes, reusing capacity when possible.
// Contents are unspecified.
func grownTo(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// extendSide runs the §2.3 build/walk/shift-k loop rightward. The returned
// extension aliases ws.buf and is only valid until the workspace's next
// use; callers must copy what they keep.
func (ws *cpuWorkspace) extendSide(ctg []byte, reads []dna.Read, cfg *Config, wc *WorkCounts) ([]byte, WalkState, int) {
	tailLen := min(len(ctg), cfg.MaxMer)
	ws.buf = grownTo(ws.buf, tailLen+cfg.MaxWalkLen)[:0]
	ws.buf = append(ws.buf, ctg[len(ctg)-tailLen:]...)

	mer := min(cfg.StartMer, tailLen)
	if mer < cfg.MinMer {
		return nil, WalkDeadEnd, 0
	}

	state := WalkDeadEnd
	shift := 0
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters++
		ws.buildTable(reads, mer, cfg.QualCutoff, wc)
		var steps int64
		state, steps = ws.walk(tailLen, mer, reads, cfg, wc)
		wc.WalkSteps += steps

		next, nextShift, done := nextMer(cfg, mer, shift, state)
		if done {
			break
		}
		if next > len(ws.buf) { // mer cannot exceed the walk buffer
			break
		}
		mer, shift = next, nextShift
	}
	return ws.buf[tailLen:], state, iters
}

// prepLeft reverse-complements the contig tail and the left candidate reads
// into workspace arenas, so the left side can reuse the rightward walker
// (§2.3) without per-contig allocations.
func (ws *cpuWorkspace) prepLeft(c *CtgWithReads, cfg *Config) ([]byte, []dna.Read) {
	tailLen := min(len(c.Seq), cfg.MaxMer)
	// Only the last tailLen bases of RevComp(c.Seq) — the reverse
	// complement of the contig's first tailLen bases — ever reach the walk.
	ws.rcCtg = grownTo(ws.rcCtg, tailLen)
	head := c.Seq[:tailLen]
	for i, b := range head {
		ws.rcCtg[tailLen-1-i] = dna.Complement(b)
	}

	total := 0
	for i := range c.LeftReads {
		total += len(c.LeftReads[i].Seq) + len(c.LeftReads[i].Qual)
	}
	ws.rcArena = grownTo(ws.rcArena, total)
	if cap(ws.rcReads) < len(c.LeftReads) {
		ws.rcReads = make([]dna.Read, len(c.LeftReads))
	}
	ws.rcReads = ws.rcReads[:len(c.LeftReads)]
	off := 0
	for i := range c.LeftReads {
		r := &c.LeftReads[i]
		seq := ws.rcArena[off : off+len(r.Seq)]
		off += len(r.Seq)
		for j, b := range r.Seq {
			seq[len(r.Seq)-1-j] = dna.Complement(b)
		}
		qual := ws.rcArena[off : off+len(r.Qual)]
		off += len(r.Qual)
		for j, q := range r.Qual {
			qual[len(r.Qual)-1-j] = q
		}
		ws.rcReads[i] = dna.Read{ID: r.ID, Seq: seq, Qual: qual}
	}
	return ws.rcCtg, ws.rcReads
}

// cloneExt copies a workspace-aliased extension into a caller-owned slice
// (nil for the empty extension, so no-op contigs stay allocation-free).
func cloneExt(ext []byte) []byte {
	if len(ext) == 0 {
		return nil
	}
	return append([]byte(nil), ext...)
}
