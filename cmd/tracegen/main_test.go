package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsched/internal/vm"
)

// TestTraceRoundTrip: the written trace reads back through vm.LoadTrace
// with the access count the summary printed.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a2time.trc")
	var out strings.Builder
	if err := run([]string{"-kernel", "a2time", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := vm.LoadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	want := fmt.Sprintf("accesses      %d (%d loads, %d stores)", tr.Len(), tr.Reads(), tr.Writes())
	if !strings.Contains(out.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, out.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-bogus"},
		{"-kernel", "a2time"}, // no -o
		{"-kernel", "nosuch", "-o", filepath.Join(dir, "x.trc")},
		{"-kernel", "a2time", "-o", filepath.Join(dir, "missing", "x.trc")},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

// TestWriteErrorReported: a trace file that cannot be written is an error,
// not a summary line.
func TestWriteErrorReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := run([]string{"-kernel", "a2time", "-o", "/dev/full"}, io.Discard); err == nil {
		t.Error("writing the trace to /dev/full succeeded")
	}
}
