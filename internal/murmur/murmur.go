// Package murmur implements MurmurHash2, the non-cryptographic hash
// function by Austin Appleby that MetaHipMer's local assembly uses to place
// k-mers into its warp-local hash tables (SC '21 paper, §3.3).
//
// Hash64A is the canonical 64-bit MurmurHash2 ("MurmurHash64A") used for
// hash-table placement; Hash64Word and the streaming block API are the same
// function over inputs that are already words.
package murmur

// Hash64A computes the 64-bit MurmurHash2 ("MurmurHash64A") of data with the
// given seed. It is a faithful port of Appleby's reference implementation
// for little-endian machines.
func Hash64A(data []byte, seed uint64) uint64 {
	const (
		m = 0xc6a4a7935bd1e995
		r = 47
	)
	h := seed ^ uint64(len(data))*m

	n := len(data) / 8 * 8
	for i := 0; i < n; i += 8 {
		k := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 |
			uint64(data[i+3])<<24 | uint64(data[i+4])<<32 | uint64(data[i+5])<<40 |
			uint64(data[i+6])<<48 | uint64(data[i+7])<<56

		k *= m
		k ^= k >> r
		k *= m

		h ^= k
		h *= m
	}

	tail := data[n:]
	switch len(tail) {
	case 7:
		h ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(tail[0])
		h *= m
	}

	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// Hash64Word hashes a pair of uint64 words (e.g. a packed k-mer) without
// materializing a byte slice. It is equivalent to Hash64A over the 16-byte
// little-endian encoding of (w0, w1).
func Hash64Word(w0, w1 uint64, seed uint64) uint64 {
	const (
		m uint64 = 0xc6a4a7935bd1e995
		r        = 47
	)
	var n uint64 = 16 // bytes hashed
	h := seed ^ n*m

	for _, k := range [2]uint64{w0, w1} {
		k *= m
		k ^= k >> r
		k *= m
		h ^= k
		h *= m
	}

	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// Streaming block API: Hash64Init / Hash64Mix / Hash64Tail / Hash64Final
// decompose Hash64A so a caller that produces little-endian 8-byte blocks
// incrementally (a warp kernel gathering 8-byte vector loads) can fold each
// block into the running state without materializing a slice. For the n
// bytes the blocks hold,
//
//	h := Hash64Init(n, seed)
//	h = Hash64Mix(h, block)       // for each of the n/8 full blocks
//	h = Hash64Tail(h, last, n&7)  // when n is not a multiple of 8
//	Hash64Final(h) == Hash64A(bytes, seed)

const (
	mix64 uint64 = 0xc6a4a7935bd1e995
	rot64        = 47
)

// Hash64Init returns the initial streaming state for hashing n bytes.
func Hash64Init(n int, seed uint64) uint64 { return seed ^ uint64(n)*mix64 }

// Hash64Mix folds one full little-endian 8-byte block into the state.
func Hash64Mix(h, block uint64) uint64 {
	block *= mix64
	block ^= block >> rot64
	block *= mix64
	h ^= block
	h *= mix64
	return h
}

// Hash64Tail folds the final partial block holding rem ∈ [1,7] meaningful
// low bytes; bytes beyond rem are ignored (callers may over-read).
func Hash64Tail(h, block uint64, rem int) uint64 {
	h ^= block & (^uint64(0) >> uint(64-8*rem))
	h *= mix64
	return h
}

// Hash64Final finalizes the streaming state into the hash value.
func Hash64Final(h uint64) uint64 {
	h ^= h >> rot64
	h *= mix64
	h ^= h >> rot64
	return h
}
