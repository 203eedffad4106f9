package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCode(t *testing.T) {
	for i, b := range []byte{'A', 'C', 'G', 'T'} {
		c, ok := Code(b)
		if !ok || c != byte(i) {
			t.Errorf("Code(%q) = %d,%v want %d,true", b, c, ok, i)
		}
		lc, ok := Code(b + 'a' - 'A')
		if !ok || lc != byte(i) {
			t.Errorf("lowercase Code(%q) = %d,%v want %d,true", b+'a'-'A', lc, ok, i)
		}
	}
	for _, b := range []byte{'N', 'X', '-', 0, ' '} {
		if _, ok := Code(b); ok {
			t.Errorf("Code(%q) unexpectedly valid", b)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%q) = %q, want %q", b, got, want)
		}
	}
	// Every byte: the table against the switch it replaced.
	for i := 0; i < 256; i++ {
		want := byte('N')
		switch b := byte(i); b {
		case 'A', 'a':
			want = 'T'
		case 'C', 'c':
			want = 'G'
		case 'G', 'g':
			want = 'C'
		case 'T', 't':
			want = 'A'
		}
		if got := Complement(byte(i)); got != want {
			t.Errorf("Complement(%#x) = %q, want %q", i, got, want)
		}
	}
}

func TestRevComp(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindrome
		{"AACGT", "ACGTT"},
		{"GATTACA", "TGTAATC"},
	}
	for _, c := range cases {
		if got := string(RevComp([]byte(c.in))); got != c.want {
			t.Errorf("RevComp(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = Alphabet[b%4]
		}
		back := RevComp(RevComp(seq))
		return bytes.Equal(seq, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRevCompInPlaceMatchesRevComp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(31)
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = Alphabet[rng.Intn(4)]
		}
		want := RevComp(seq)
		got := append([]byte(nil), seq...)
		RevCompInPlace(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("RevCompInPlace(%q) = %q, want %q", seq, got, want)
		}
	}
}

func TestQualRoundTrip(t *testing.T) {
	for s := 0; s <= MaxQual; s++ {
		if got := QualScore(QualChar(s)); got != s {
			t.Errorf("QualScore(QualChar(%d)) = %d", s, got)
		}
	}
	if QualChar(-5) != QualChar(0) {
		t.Error("negative scores should clamp to 0")
	}
	if QualChar(99) != QualChar(MaxQual) {
		t.Error("large scores should clamp to MaxQual")
	}
}

func TestReadValidate(t *testing.T) {
	good := Read{ID: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	if err := good.Validate(); err != nil {
		t.Errorf("valid read rejected: %v", err)
	}
	bad := Read{ID: "r2", Seq: []byte("ACGT"), Qual: []byte("II")}
	if err := bad.Validate(); err == nil {
		t.Error("length-mismatched read accepted")
	}
	badQ := Read{ID: "r3", Seq: []byte("A"), Qual: []byte{3}}
	if err := badQ.Validate(); err == nil {
		t.Error("read with sub-offset quality accepted")
	}
}

func TestReadRevComp(t *testing.T) {
	r := Read{ID: "r", Seq: []byte("AACG"), Qual: []byte("!#%'")}
	rc := r.RevComp()
	if string(rc.Seq) != "CGTT" {
		t.Errorf("RevComp seq = %q", rc.Seq)
	}
	if string(rc.Qual) != "'%#!" {
		t.Errorf("RevComp qual = %q", rc.Qual)
	}
	// Original untouched.
	if string(r.Seq) != "AACG" {
		t.Errorf("original mutated: %q", r.Seq)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := Read{ID: "r", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	c := r.Clone()
	c.Seq[0] = 'T'
	c.Qual[0] = '#'
	if r.Seq[0] != 'A' || r.Qual[0] != 'I' {
		t.Error("Clone shares backing arrays")
	}
}

func TestPack2BitRoundTrip(t *testing.T) {
	f := func(raw []byte, at uint8) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = Alphabet[b%4]
		}
		packed := make([]byte, (int(at)+len(seq)+3)/4)
		if !Pack2Bit(packed, int(at), seq) {
			return false
		}
		return bytes.Equal(Unpack2Bit(packed, int(at)+len(seq))[at:], seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPack2BitRevCompMatchesPack2Bit packs mixed-case sequences and ones
// holding an N both ways, at every length 0–70 and offset 0–3.
func TestPack2BitRevCompMatchesPack2Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 70; n++ {
		for at := 0; at < 4; at++ {
			for _, impure := range []bool{false, true} {
				seq := make([]byte, n)
				for i := range seq {
					seq[i] = "ACGTacgt"[rng.Intn(8)]
				}
				if impure && n > 0 {
					seq[rng.Intn(n)] = 'N'
				}
				got, want := make([]byte, (at+n+3)/4+1), make([]byte, (at+n+3)/4+1)
				gotOK, wantOK := Pack2BitRevComp(got, at, seq), Pack2Bit(want, at, RevComp(seq))
				if gotOK != wantOK || wantOK && !bytes.Equal(got, want) {
					t.Fatalf("%q at %d: Pack2BitRevComp %x %v, Pack2Bit of RevComp %x %v", seq, at, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestPack2BitRejectsAmbiguous(t *testing.T) {
	for _, seq := range []string{"ACNGT", "ACgT", "ACRT"} {
		if Packable([]byte(seq)) || Pack2Bit(make([]byte, 2), 0, []byte(seq)) {
			t.Errorf("%s packed", seq)
		}
	}
	if !Packable([]byte("ACGT")) {
		t.Error("ACGT not packable")
	}
	// PackWord agrees with Pack2Bit on every byte, at every length.
	for b := 0; b < 256; b++ {
		for n := 1; n <= 8; n++ {
			seq := append(bytes.Repeat([]byte("T"), n-1), byte(b))
			var x uint64
			for i, c := range seq {
				x |= uint64(c) << (8 * i)
			}
			packed := make([]byte, 2)
			ok := Pack2Bit(packed, 0, seq)
			if n < 8 {
				x |= 0xdead << (8 * n) // bytes past n do not count
			}
			got, gotOK := PackWord(x, n)
			if gotOK != ok || ok && got != uint64(packed[0])|uint64(packed[1])<<8 {
				t.Fatalf("byte %#x at %d: PackWord %#x %v, Pack2Bit %x %v", b, n, got, gotOK, packed, ok)
			}
		}
	}
}

func TestCountValid(t *testing.T) {
	if got := CountValid([]byte("ACNGT-x")); got != 4 {
		t.Errorf("CountValid = %d, want 4", got)
	}
}

func BenchmarkRevComp150(b *testing.B) {
	seq := bytes.Repeat([]byte("ACGT"), 38)[:150]
	b.SetBytes(150)
	for i := 0; i < b.N; i++ {
		RevCompInPlace(seq)
	}
}
