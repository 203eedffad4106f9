package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	n, err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	})
	if err != nil || n != 6 {
		t.Fatalf("Write = %d, %v; want 6, nil", n, err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello\n" {
		t.Fatalf("content %q, %v", b, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
}

// TestWriteFailure: a failed write leaves neither a temporary file nor a
// new destination, and an existing destination keeps its content.
func TestWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	boom := errors.New("boom")
	fail := func(w io.Writer) error {
		_, _ = io.WriteString(w, "partial")
		return boom
	}
	if _, err := Write(path, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after a failed write (%v)", p, err)
		}
	}
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(path, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Errorf("destination overwritten by a failed write: %q", b)
	}
}
