// Package ledgertest holds the test suite's one golden-file path.
package ledgertest

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with what the tests render")

// Golden fails t unless got is the golden file at path; -update writes it
// there first. The failure names the first line that differs.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(b), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d changed:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}
