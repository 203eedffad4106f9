// Package gpuht implements the paper's warp-local k-mer hash table on the
// simt device (§3.2–3.3): open addressing with linear probing, CAS-claimed
// slots, match_any-based thread-collision resolution, and pointer-compressed
// keys — entries store a 4-byte offset into the candidate-reads arena
// instead of the k-mer itself (Fig 6), letting key loads ride the reads
// already resident in memory. The arena holds reads 2-bit packed: a 4-byte
// offset stands for ⌈k/4⌉ bytes of key, and loading one takes 1–2 words.
//
// The package also implements the §3.2 sizing policy: one flat allocation
// holds every per-extension table, with per-table slot counts of
// maxReadLen × nReads so the load factor never exceeds
// (l−k+1)/l ≤ (300−21+1)/300 ≈ 0.93.
package gpuht

import "mhm2sim/internal/simt"

// Entry layout (32 bytes, two sectors per four entries):
//
//	offset 0  u32  keyOff  — k-mer start offset in a reads arena (see Packed); Empty if unclaimed
//	offset 4  u32  count   — occurrences of the k-mer
//	offset 8  4×u16 extHi  — high-quality counts of the following base (A,C,G,T)
//	offset 16 4×u16 extLo  — low-quality counts
//	offset 24 pad
const (
	EntryBytes = 32

	offKeyOff = 0
	offCount  = 4
	offExtHi  = 8
	offExtLo  = 16

	// Empty marks an unclaimed slot.
	Empty = 0xffffffff

	// NoExt marks a k-mer with no following base (suffix of its read).
	NoExt = 0xff

	// hashSeed seeds murmur for table placement.
	hashSeed = 0x5eed1ab5

	// Packed flags a key offset that counts bases into the packed arena
	// (Table.PackBase); an offset without it counts bytes into the raw
	// arena (Table.SeqBase).
	Packed = 1 << 31

	// MaxK is the widest k-mer a table keys (locassm.Config caps its mer
	// ladder there): 4 packed words, or 16 raw blocks.
	MaxK = 128
)

// Ext is the extension object stored per k-mer: occurrence count plus
// quality-split counts of the base that follows the k-mer (§2.3).
type Ext struct {
	Count uint32
	Hi    [4]uint16
	Lo    [4]uint16
}

// Table describes one extension's k-mer hash table inside the flat
// allocation. Keys are offsets into the packed reads arena at PackBase
// (dna.Pack2Bit's layout; see Packed) or the raw one at SeqBase. K ≤ MaxK.
type Table struct {
	Base     simt.Ptr
	Capacity uint64
	SeqBase  simt.Ptr
	PackBase simt.Ptr
	K        int
}

// Bytes returns the device bytes a table of n slots occupies.
func Bytes(slots int) int64 { return int64(slots) * EntryBytes }

// SlotsPerExtension returns the paper's table size for one contig
// extension: maxReadLen × nReads slots (§3.2). Sizing by l rather than
// l−k+1 keeps the load factor at or below (l−k+1)/l.
func SlotsPerExtension(maxReadLen, nReads int) int {
	if nReads <= 0 {
		return 0
	}
	return maxReadLen * nReads
}

// MaxKmers returns the worst-case distinct k-mers for one extension:
// (l−k+1) × r.
func MaxKmers(maxReadLen, k, nReads int) int {
	if maxReadLen < k || nReads <= 0 {
		return 0
	}
	return (maxReadLen - k + 1) * nReads
}

// HostSlots returns the slot count the host flat-table engine uses for an
// extension holding at most nKmers distinct k-mers: the smallest power of
// two ≥ 2·nKmers. The device table (SlotsPerExtension) follows the paper's
// l×r sizing because device memory is the scarce resource and a ~0.93 load
// factor is acceptable for warp-parallel probing; the host engine instead
// spends 2× the §3.2 (l−k+1)·r bound to keep the expected linear-probe
// chain short on a single core, and rounds to a power of two so probe
// wrap-around is a mask instead of a modulo.
func HostSlots(nKmers int) int {
	if nKmers <= 0 {
		return 0
	}
	slots := 1
	for slots < 2*nKmers {
		slots <<= 1
	}
	return slots
}

// LoadFactor returns the worst-case load factor of the §3.2 sizing policy
// for reads of length l and k-mers of length k: (l−k+1)/l.
func LoadFactor(l, k int) float64 {
	if l <= 0 || k <= 0 || k > l {
		return 0
	}
	return float64(l-k+1) / float64(l)
}

// entryAddr returns the address of the entry in slot (below Capacity).
func (t Table) entryAddr(slot uint64) uint64 {
	return uint64(t.Base) + slot*EntryBytes
}
