package main

import (
	"strings"
	"testing"
)

// TestRejectsNonPositiveProcs: a processor count below 1 would give
// mapping.New a degenerate grid to divide by; it must be an error (main
// turns it into exit status 1) before any mapping is built.
func TestRejectsNonPositiveProcs(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "10", "-procs", "0", "-action", "balance"},
		{"-grid", "10", "-procs", "-2", "-action", "factor"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-procs") {
			t.Errorf("spchol %s: err = %v, want a -procs error", strings.Join(args, " "), err)
		}
	}
}
