package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mhm2sim/internal/atomicfile"
	"mhm2sim/internal/dbg"
	"mhm2sim/internal/dna"
)

// Checkpointing mirrors MetaHipMer2's --checkpoint behaviour: after each
// contigging round the (locally assembled) contigs are written to the
// checkpoint directory, and a rerun resumes from the latest completed
// round instead of recomputing it.

// A round's checkpoint file is ckptPrefix + k + ckptSuffix.
const ckptPrefix, ckptSuffix = "contigs-k", ".fasta"

// ckptName returns the checkpoint file for round k.
func ckptName(dir string, k int) string {
	return filepath.Join(dir, ckptPrefix+strconv.Itoa(k)+ckptSuffix)
}

// HasCheckpoint reports whether dir holds any completed round — whether a
// run pointed at it would resume instead of starting over. A missing
// directory holds none.
func HasCheckpoint(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ckptPrefix) && strings.HasSuffix(e.Name(), ckptSuffix) {
			return true, nil
		}
	}
	return false, nil
}

// saveRound writes a round's contigs (atomically: write + rename).
func saveRound(dir string, k int, ctgs []dbg.Contig) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	names := make([]string, len(ctgs))
	seqs := make([][]byte, len(ctgs))
	for i := range ctgs {
		// Depth rides inside the name token: FASTA readers keep only the
		// first whitespace-separated field. The shortest round-trip float
		// form keeps a resumed run's contig depths bit-identical to the
		// uninterrupted run's (a fixed precision would truncate them).
		names[i] = "contig_" + strconv.FormatInt(ctgs[i].ID, 10) +
			"|depth=" + strconv.FormatFloat(ctgs[i].Depth, 'g', -1, 64)
		seqs[i] = ctgs[i].Seq
	}
	return atomicfile.Write(ckptName(dir, k), func(w io.Writer) error {
		return dna.WriteFASTA(w, names, seqs, 80)
	})
}

// loadRound reads a round checkpoint; ok is false when none exists.
func loadRound(dir string, k int) ([]dbg.Contig, bool, error) {
	f, err := os.Open(ckptName(dir, k))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	names, seqs, err := dna.ReadFASTA(f)
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: corrupt checkpoint %s: %w", ckptName(dir, k), err)
	}
	ctgs := make([]dbg.Contig, len(names))
	for i := range names {
		ctgs[i] = dbg.Contig{ID: int64(i), Seq: seqs[i]}
		// Recover id and depth from the name token.
		for _, fld := range strings.Split(names[i], "|") {
			if v, ok := strings.CutPrefix(fld, "contig_"); ok {
				if id, err := strconv.ParseInt(v, 10, 64); err == nil {
					ctgs[i].ID = id
				}
			}
			if v, ok := strings.CutPrefix(fld, "depth="); ok {
				if d, err := strconv.ParseFloat(v, 64); err == nil {
					ctgs[i].Depth = d
				}
			}
		}
	}
	return ctgs, true, nil
}

// resumePoint finds the longest prefix of rounds with checkpoints and
// returns the contigs of the last one plus how many rounds to skip.
func resumePoint(dir string, rounds []int) ([]dbg.Contig, int, error) {
	var ctgs []dbg.Contig
	skip := 0
	for _, k := range rounds {
		loaded, ok, err := loadRound(dir, k)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		ctgs = loaded
		skip++
	}
	return ctgs, skip, nil
}
