package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: an unknown figure id used to print nothing and exit 0;
// the scorecard's ranges are stated for the standard setups.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig 7", `unknown -fig "7" (valid: all, 2, 3, 8, 9, 10, 12, 13, 14, check)`},
		{"-fig 8;9", `unknown -fig "8;9"`},
		{"-fig 3,", `unknown -fig ""`},
		{"-fig check -quick", "-fig check scores the standard setups"},
		{"-fig 3 extra", `unexpected argument "extra"`},
		{"-figs 3", "flag provided but not defined"},
	} {
		var stderr bytes.Buffer
		if o, err := parseFlags(strings.Fields(tc.args), &stderr); err == nil {
			t.Errorf("%q accepted: %+v", tc.args, o)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not name the error (%s)", tc.args, stderr.String(), tc.want)
		}
	}
}

func TestFigSelection(t *testing.T) {
	o, err := parseFlags(strings.Fields("-fig 8,check"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !o.has("9", "8") || !o.has("check") || o.has("3") {
		t.Errorf("-fig 8,check selects %v", o.figs)
	}
	if o, _ = parseFlags(nil, &bytes.Buffer{}); !o.has("14") || o.has("check") {
		t.Errorf("the default selects %v: every figure, and the scorecard only by name", o.figs)
	}
}
