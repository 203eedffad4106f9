package locassm

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"mhm2sim/internal/atomicfile"
)

// Workload dump/load implements the paper's standalone-evaluation workflow
// (§4.1): "we used the arcticsynth dataset and processed it through the
// MetaHipMer pipeline to dump the contigs and their candidate reads that
// are input to the local assembly module. This data dump was then used to
// evaluate the performance of the GPU local-assembly kernels."

// dumpMagic guards against feeding arbitrary files to the loader.
const dumpMagic = "mhm2sim-lassm-dump-v1"

// DumpWorkload serializes a local-assembly workload.
func DumpWorkload(w io.Writer, ctgs []*CtgWithReads) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(dumpMagic); err != nil {
		return err
	}
	if err := enc.Encode(len(ctgs)); err != nil {
		return err
	}
	for _, c := range ctgs {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWorkload reads a workload written by DumpWorkload.
func LoadWorkload(r io.Reader) ([]*CtgWithReads, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, fmt.Errorf("locassm: not a workload dump: %w", err)
	}
	if magic != dumpMagic {
		return nil, fmt.Errorf("locassm: bad dump magic %q", magic)
	}
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("locassm: negative contig count %d", n)
	}
	var out []*CtgWithReads // grown by append: n is the file's word, not a size to trust
	for i := 0; i < n; i++ {
		var c CtgWithReads
		if err := dec.Decode(&c); err != nil {
			return nil, fmt.Errorf("locassm: corrupt dump at contig %d: %w", i, err)
		}
		out = append(out, &c)
	}
	return out, nil
}

// DumpWorkloadFile writes the workload to a file (atomically via rename).
func DumpWorkloadFile(path string, ctgs []*CtgWithReads) error {
	_, err := atomicfile.Write(path, func(w io.Writer) error { return DumpWorkload(w, ctgs) })
	return err
}

// LoadWorkloadFile reads a workload dump from a file.
func LoadWorkloadFile(path string) ([]*CtgWithReads, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWorkload(f)
}
