package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunPrintsAccuracy trains a two-member bag without the disk cache and
// checks the report's accuracy lines.
func TestRunPrintsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the training pool")
	}
	var out strings.Builder
	if err := run([]string{"-members", "2", "-cache-dir", "off", "-j", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ensemble:      2 members", "held-out accuracy", "canonical suite: accuracy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-o", "predictor.json"}} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
