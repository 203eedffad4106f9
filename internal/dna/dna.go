// Package dna provides the DNA-sequence primitives shared by every stage of
// the assembler: base codes, reverse complements, Phred quality scores, and
// sequencing reads.
//
// Sequences are kept as plain ASCII byte slices (the representation the
// local-assembly hash tables index into with pointer-compressed keys), with
// optional 2-bit packing for the k-mer layer.
package dna

import "fmt"

// Bases in their canonical 2-bit encoding. Every function in this package
// and in package kmer agrees on A=0, C=1, G=2, T=3.
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// Alphabet lists the ASCII bases in 2-bit code order.
var Alphabet = [4]byte{'A', 'C', 'G', 'T'}

// codeOf maps ASCII to the 2-bit code, with 0xff marking non-ACGT bytes;
// complementOf maps it to the complement's upper-case base, or 'N'.
var codeOf, complementOf [256]byte

func init() {
	for i := range codeOf {
		codeOf[i], complementOf[i] = 0xff, 'N'
	}
	for c, b := range Alphabet {
		codeOf[b], codeOf[b|0x20] = byte(c), byte(c)
		complementOf[b], complementOf[b|0x20] = Alphabet[c^3], Alphabet[c^3]
	}
}

// Code returns the 2-bit code of an ASCII base and whether the byte was a
// valid unambiguous base (ACGT, either case).
func Code(b byte) (byte, bool) {
	c := codeOf[b]
	return c, c != 0xff
}

// IsACGT reports whether b is an unambiguous base.
func IsACGT(b byte) bool { return codeOf[b] != 0xff }

// Complement returns the Watson-Crick complement of an ASCII base.
// Non-ACGT bytes (e.g. 'N') complement to 'N'.
func Complement(b byte) byte { return complementOf[b] }

// RevComp returns the reverse complement of seq as a new slice.
func RevComp(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = Complement(b)
	}
	return out
}

// RevCompInPlace reverse-complements seq without allocating.
func RevCompInPlace(seq []byte) {
	i, j := 0, len(seq)-1
	for i < j {
		seq[i], seq[j] = Complement(seq[j]), Complement(seq[i])
		i, j = i+1, j-1
	}
	if i == j {
		seq[i] = Complement(seq[i])
	}
}

// CountValid returns how many bytes of seq are unambiguous bases.
func CountValid(seq []byte) int {
	n := 0
	for _, b := range seq {
		if IsACGT(b) {
			n++
		}
	}
	return n
}

// Phred quality handling. MetaHipMer treats extensions backed by bases at or
// above a quality threshold as "high quality" evidence and the rest as "low
// quality" (§2.3: the extension object records base quality and counts).
const (
	// QualOffset is the Sanger/Illumina-1.8 ASCII offset.
	QualOffset = 33
	// QualCutoff is the Phred score at or above which a base counts as
	// high-quality evidence for an extension (MetaHipMer uses 20).
	QualCutoff = 20
	// MaxQual caps encoded qualities.
	MaxQual = 41
)

// QualScore converts an ASCII quality byte to its Phred score.
func QualScore(q byte) int { return int(q) - QualOffset }

// QualChar converts a Phred score to its ASCII encoding, clamped to
// [0, MaxQual].
func QualChar(score int) byte {
	if score < 0 {
		score = 0
	}
	if score > MaxQual {
		score = MaxQual
	}
	return byte(score + QualOffset)
}

// Read is one sequencing read: an identifier, the base string, and
// per-base Phred qualities (same length as Seq).
type Read struct {
	ID   string
	Seq  []byte
	Qual []byte
}

// Validate checks the structural invariants of a read.
func (r *Read) Validate() error {
	if len(r.Seq) != len(r.Qual) {
		return fmt.Errorf("dna: read %s: seq len %d != qual len %d", r.ID, len(r.Seq), len(r.Qual))
	}
	for i, q := range r.Qual {
		if s := QualScore(q); s < 0 || s > MaxQual+10 {
			return fmt.Errorf("dna: read %s: bad quality %q at %d", r.ID, q, i)
		}
	}
	return nil
}

// Clone deep-copies the read.
func (r *Read) Clone() Read {
	return Read{
		ID:   r.ID,
		Seq:  append([]byte(nil), r.Seq...),
		Qual: append([]byte(nil), r.Qual...),
	}
}

// RevComp returns the reverse-complemented read: sequence reverse
// complemented, qualities reversed.
func (r *Read) RevComp() Read {
	rc := Read{ID: r.ID, Seq: RevComp(r.Seq), Qual: make([]byte, len(r.Qual))}
	for i, q := range r.Qual {
		rc.Qual[len(r.Qual)-1-i] = q
	}
	return rc
}

// PairedRead is a fragment sequenced from both ends: Fwd from the 5' end of
// the fragment, Rev from the 3' end (already reported in the orientation the
// sequencer emits, i.e. the reverse complement of the fragment's tail).
type PairedRead struct {
	Fwd Read
	Rev Read
	// InsertSize is the fragment length the pair was drawn from, when
	// known (synthetic data); 0 otherwise.
	InsertSize int
}

// Pack2Bit packs seq (ACGT only) into 2-bit codes, 4 bases per byte,
// little-endian within the byte. It returns an error on ambiguous bases.
func Pack2Bit(seq []byte) ([]byte, error) {
	out := make([]byte, (len(seq)+3)/4)
	for i, b := range seq {
		c, ok := Code(b)
		if !ok {
			return nil, fmt.Errorf("dna: cannot 2-bit pack ambiguous base %q at %d", b, i)
		}
		out[i/4] |= c << uint((i%4)*2)
	}
	return out, nil
}

// Unpack2Bit expands packed 2-bit codes back into n ASCII bases.
func Unpack2Bit(packed []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		c := (packed[i/4] >> uint((i%4)*2)) & 3
		out[i] = Alphabet[c]
	}
	return out
}
