package murmur

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Golden regression vectors. Hash64A("",0)=0 follows directly from the
// algorithm; Hash64A("a",0) matches the widely published MurmurHash64A
// value 0x071717d2d36b6b11. The remaining values pin down this port so any
// future change to the mixing constants or tail handling is caught.
func TestHash64AVectors(t *testing.T) {
	cases := []struct {
		data string
		seed uint64
		want uint64
	}{
		{"", 0, 0},
		{"a", 0, 0x071717d2d36b6b11},
		{"ab", 0, 0x62be85b2fe53d1f8},
		{"hello", 0, 0x1e68d17c457bf117},
		{"hello, world", 0, 0x9659ad0699a8465f},
		{"hello", 123, 0x240cb1d62529fb86},
		{"ACGTACGTACGTACGT", 0, 0x76a42918f0b8fc27},
	}
	for _, c := range cases {
		if got := Hash64A([]byte(c.data), c.seed); got != c.want {
			t.Errorf("Hash64A(%q, %d) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

func TestHash64ATailLengths(t *testing.T) {
	// All tail lengths 0..7 must be handled; adjacent lengths must differ.
	data := []byte("abcdefghijklmnop")
	seen := map[uint64]int{}
	for n := 0; n <= len(data); n++ {
		h := Hash64A(data[:n], 42)
		if prev, dup := seen[h]; dup {
			t.Errorf("lengths %d and %d collide: %#x", prev, n, h)
		}
		seen[h] = n
	}
}

func TestHash64WordMatchesBytes(t *testing.T) {
	f := func(w0, w1, seed uint64) bool {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], w0)
		binary.LittleEndian.PutUint64(buf[8:], w1)
		return Hash64Word(w0, w1, seed) == Hash64A(buf[:], seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hash64Blocks hashes the first n bytes of little-endian blocks through the
// streaming API, as a warp kernel does with its 8-byte vector loads.
func hash64Blocks(blocks []uint64, n int, seed uint64) uint64 {
	h := Hash64Init(n, seed)
	for _, b := range blocks[:n/8] {
		h = Hash64Mix(h, b)
	}
	if rem := n & 7; rem != 0 {
		h = Hash64Tail(h, blocks[n/8], rem)
	}
	return Hash64Final(h)
}

func TestHash64BlocksMatchesBytes(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		blocks := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			blocks[i/8] |= uint64(b) << uint(8*(i%8))
		}
		return hash64Blocks(blocks, len(data), seed) == Hash64A(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64BlocksIgnoresOverread(t *testing.T) {
	// Garbage beyond n in the final block must not change the hash.
	a := []uint64{0x1122334455667788, 0x00000000000000aa}
	b := []uint64{0x1122334455667788, 0xdeadbeef000000aa}
	if hash64Blocks(a, 9, 7) != hash64Blocks(b, 9, 7) {
		t.Error("tail garbage leaked into hash")
	}
}

func TestSeedChangesHash(t *testing.T) {
	f := func(data []byte, s1, s2 uint64) bool {
		if s1 == s2 || len(data) == 0 {
			return true
		}
		return Hash64A(data, s1) != Hash64A(data, s2)
	}
	// Not a mathematical guarantee, but any failure here would indicate a
	// seed-handling bug rather than a genuine 1-in-2^64 collision.
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHash64ADeterministic(t *testing.T) {
	data := []byte("GATTACA")
	if Hash64A(data, 7) != Hash64A(data, 7) {
		t.Fatal("hash is not deterministic")
	}
}

func BenchmarkHash64A_16B(b *testing.B) {
	data := []byte("ACGTACGTACGTACGT")
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Hash64A(data, 0)
	}
}

func BenchmarkHash64Word(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Hash64Word(uint64(i), ^uint64(i), 0)
	}
}
