package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadPreset(t *testing.T) {
	if err := run([]string{"-preset", "nope"}); err == nil {
		t.Error("no error for unknown preset")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-fig"}); err == nil {
		t.Error("no error for malformed flags")
	}
}

// The command reproduces figures only: each of the six benchmark flags
// retired at PR 21 is refused as unknown, not silently accepted.
func TestRunRejectsRetiredBenchFlags(t *testing.T) {
	for _, name := range []string{"nn", "out", "score", "score-out", "serve", "serve-out"} {
		flag := "-bench-" + name
		err := run([]string{flag, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s x: err = %v, want an unknown-flag error", flag, err)
		}
	}
}
