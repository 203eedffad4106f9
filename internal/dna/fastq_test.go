package dna

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func randomReads(rng *rand.Rand, n int) []Read {
	reads := make([]Read, n)
	for i := range reads {
		l := 50 + rng.Intn(101)
		seq := make([]byte, l)
		qual := make([]byte, l)
		for j := range seq {
			seq[j] = Alphabet[rng.Intn(4)]
			qual[j] = QualChar(rng.Intn(MaxQual + 1))
		}
		reads[i] = Read{ID: "read" + string(rune('A'+i%26)) + "x", Seq: seq, Qual: qual}
	}
	return reads
}

func TestFASTQRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reads := randomReads(rng, 25)
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reads) {
		t.Fatalf("round trip: %d reads, want %d", len(back), len(reads))
	}
	for i := range reads {
		if back[i].ID != reads[i].ID ||
			!bytes.Equal(back[i].Seq, reads[i].Seq) ||
			!bytes.Equal(back[i].Qual, reads[i].Qual) {
			t.Fatalf("read %d mismatch after round trip", i)
		}
	}
}

func TestFASTQHeaderComment(t *testing.T) {
	in := "@r1 extra comment stuff\nACGT\n+\nIIII\n"
	reads, err := ReadFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0].ID != "r1" {
		t.Fatalf("got %+v", reads)
	}
}

func TestFASTQErrors(t *testing.T) {
	cases := []string{
		"ACGT\n+\nIIII\n",      // missing @
		"@r1\nACGT\nIIII\n+\n", // + not where expected
		"@r1\nACGT\n+\nII\n",   // qual length mismatch
		"@r1\nACGT\n+\n",       // truncated
		"@r1\nACGT\n",          // truncated earlier
	}
	for _, in := range cases {
		if _, err := ReadFASTQ(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// A header with no name is an error that names its line, not a panic.
func TestFASTQNamelessHeader(t *testing.T) {
	for in, line := range map[string]string{
		"@\nACGT\n+\nIIII\n":                         "line 1",
		"@r1\nACGT\n+\nIIII\n@ \t \nACGT\n+\nIIII\n": "line 5",
	} {
		_, err := ReadFASTQ(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("input %q: error %v, want one naming %s", in, err, line)
		}
	}
}

func TestFASTANamelessHeader(t *testing.T) {
	for in, line := range map[string]string{
		">\nACGT\n":            "line 1",
		">a\nAC\n\n> \t\nGT\n": "line 4",
	} {
		_, _, err := ReadFASTA(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("input %q: error %v, want one naming %s", in, err, line)
		}
	}
}

// FuzzReadInterleavedPairs: any input parses to an error or to pairs of
// named reads with a quality per base, which write back and parse equal.
func FuzzReadInterleavedPairs(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFASTQ(&valid, randomReads(rand.New(rand.NewSource(3)), 4)); err != nil {
		f.Fatal(err)
	}
	for _, in := range []string{
		valid.String(),
		"@\nACGT\n+\nIIII\n@r2\nACGT\n+\nIIII\n",                   // nameless header
		"@r1\nACGT\n+\nIIII\n@ \t \nACGT\n+\nIIII\n",               // header of blanks
		"@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTGA\r\n+\r\nIIII\r\n", // CRLF line ends
		"@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nII",                     // truncated record
		"@r1\nACGT\n+\nIIII\n",                                     // odd read count
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := ReadInterleavedPairs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var reads []Read
		for _, p := range pairs {
			for _, r := range []Read{p.Fwd, p.Rev} {
				if r.ID == "" || len(r.Seq) != len(r.Qual) {
					t.Fatalf("read %+v: empty ID or %d bases with %d qualities", r, len(r.Seq), len(r.Qual))
				}
				reads = append(reads, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteFASTQ(&buf, reads); err != nil {
			t.Fatal(err)
		}
		back, err := ReadInterleavedPairs(&buf)
		if err != nil {
			t.Fatalf("written reads do not parse: %v", err)
		}
		if len(back) != len(pairs) {
			t.Fatalf("%d pairs back, want %d", len(back), len(pairs))
		}
		for i := range pairs {
			for _, rr := range [][2]Read{{back[i].Fwd, pairs[i].Fwd}, {back[i].Rev, pairs[i].Rev}} {
				if rr[0].ID != rr[1].ID || !bytes.Equal(rr[0].Seq, rr[1].Seq) || !bytes.Equal(rr[0].Qual, rr[1].Qual) {
					t.Fatalf("pair %d: read %+v came back as %+v", i, rr[1], rr[0])
				}
			}
		}
	})
}

func TestFASTQEmpty(t *testing.T) {
	reads, err := ReadFASTQ(strings.NewReader(""))
	if err != nil || len(reads) != 0 {
		t.Fatalf("empty input: %v, %d reads", err, len(reads))
	}
}

func TestFASTQCRLF(t *testing.T) {
	in := "@r1\r\nACGT\r\n+\r\nIIII\r\n"
	reads, err := ReadFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(reads[0].Seq) != "ACGT" {
		t.Errorf("CRLF not stripped: %q", reads[0].Seq)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	names := []string{"ctg1", "ctg2", "ctg3"}
	seqs := [][]byte{
		bytes.Repeat([]byte("ACGT"), 40),
		[]byte("GATTACA"),
		[]byte(""),
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, names, seqs, 60); err != nil {
		t.Fatal(err)
	}
	backNames, backSeqs, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(backNames) != 3 {
		t.Fatalf("got %d records", len(backNames))
	}
	for i := range names {
		if backNames[i] != names[i] || !bytes.Equal(backSeqs[i], seqs[i]) {
			t.Errorf("record %d mismatch: %q/%q", i, backNames[i], backSeqs[i])
		}
	}
}

func TestFASTAWrapping(t *testing.T) {
	var buf bytes.Buffer
	seq := bytes.Repeat([]byte("A"), 125)
	if err := WriteFASTA(&buf, []string{"x"}, [][]byte{seq}, 50); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // header + 50 + 50 + 25
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if len(lines[1]) != 50 || len(lines[3]) != 25 {
		t.Errorf("bad wrapping: %d/%d", len(lines[1]), len(lines[3]))
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, _, err := ReadFASTA(strings.NewReader("ACGT\n>late\n")); err == nil {
		t.Error("sequence before header accepted")
	}
	if err := WriteFASTA(&bytes.Buffer{}, []string{"a"}, nil, 0); err == nil {
		t.Error("mismatched names/seqs accepted")
	}
}
