package dist

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
	"mhm2sim/internal/murmur"
)

// refSeqSigKey is the per-window sketch seqSigKey computed before it moved
// onto kmer.Scanner: FromBytes + Canonical on every window, raw bytes for
// a window with an ambiguous base. Component homes are a function of this
// value, so it must not move.
func refSeqSigKey(seq []byte) uint64 {
	if len(seq) < sigMerLen {
		return murmur.Hash64A(seq, compSigSeed)
	}
	min := ^uint64(0)
	for i := 0; i+sigMerLen <= len(seq); i++ {
		win := seq[i : i+sigMerLen]
		h := murmur.Hash64A(win, compSigSeed)
		if km, ok := kmer.FromBytes(win, sigMerLen); ok {
			canon, _ := km.Canonical(sigMerLen)
			h = canon.HashK(sigMerLen, compSigSeed)
		}
		if h < min {
			min = h
		}
	}
	return min
}

func TestSeqSigKeyUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctg := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = dna.Alphabet[rng.Intn(4)]
		}
		return s
	}
	withN := ctg(300)
	withN[40], withN[41], withN[299] = 'N', 'n', 'N'
	lower := ctg(90)
	for i := 10; i < 50; i++ {
		lower[i] |= 0x20
	}
	allN := []byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNN")
	// Values recorded at the parent commit.
	for _, tc := range []struct {
		name string
		seq  []byte
		want uint64
	}{
		{"plain", ctg(500), 0x2bb8ed54d75e33},
		{"withN", withN, 0x43181e5f5f2009},
		{"lowercase", lower, 0x20d29bb7b1ae03a},
		{"exactly21", ctg(sigMerLen), 0x3d75893c922f3227},
		{"short", ctg(12), 0x2174fab881b2237e},
		{"allN", allN, 0x8cc2ab4c27b77026},
		{"empty", nil, 0xc855d8f708269f9e},
	} {
		got := seqSigKey(tc.seq)
		if ref := refSeqSigKey(tc.seq); got != ref {
			t.Errorf("%s: seqSigKey %#x, per-window reference %#x", tc.name, got, ref)
		}
		if got != tc.want {
			t.Errorf("%s: seqSigKey %#x, recorded %#x", tc.name, got, tc.want)
		}
	}
}
