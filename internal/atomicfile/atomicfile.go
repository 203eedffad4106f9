// Package atomicfile is the one write-then-rename in the tree: a reader of
// path sees the previous content or the complete new content, never a part.
package atomicfile

import (
	"io"
	"os"
)

// Write creates path+".tmp", lets write fill it, closes it and renames it
// over path, returning the bytes written. On any error the temporary file
// is removed and path is left as it was. Nothing is synced: a power loss
// may keep the old content (checkpoints and job records are recomputable).
func Write(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	err = write(f)
	var n int64
	if err == nil {
		n, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the write error is the one to report
		return 0, err
	}
	return n, nil
}
