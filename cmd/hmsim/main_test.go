package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runCLI drives run() as the binary would with the given arguments and
// returns what it printed to stdout. The global flag set is rebuilt with
// PanicOnError, so a flag the command rejects surfaces as an error here
// instead of exiting the test binary.
func runCLI(t *testing.T, args ...string) (stdout string, err error) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldStdout, oldStderr
	}()
	os.Args = append([]string{"hmsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("hmsim", flag.PanicOnError)
	flag.CommandLine.SetOutput(io.Discard)

	r, w, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	devnull, perr := os.Open(os.DevNull)
	if perr != nil {
		t.Fatal(perr)
	}
	defer devnull.Close()
	os.Stdout, os.Stderr = w, devnull
	captured := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		captured <- string(b)
	}()
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		err = run()
	}()
	w.Close()
	return <-captured, err
}

// TestFourSystemSmoke runs the default paper experiment on a short
// workload with the trained ANN bag and checks every system's block is
// printed with all of its jobs completed.
func TestFourSystemSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN; skipped in -short")
	}
	out, err := runCLI(t, "-cache-dir", "off", "-j", "2", "-arrivals", "300")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, sys := range []string{"base", "optimal", "energy-centric", "proposed"} {
		row := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sys) + ` +jobs=300 completed=300$`)
		if !row.MatchString(out) {
			t.Errorf("no completed %s row in:\n%s", sys, out)
		}
	}
}

// TestClusterSmoke runs cluster mode over a three-node topology and checks
// the header, one row per node in topology order, and the totals line.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN; skipped in -short")
	}
	out, err := runCLI(t, "-cache-dir", "off", "-j", "2", "-cluster", "2*quad;1*16x2", "-arrivals", "300")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "3 nodes, 24 cores, 300 jobs") {
		t.Errorf("missing cluster header in:\n%s", out)
	}
	for i, shape := range []string{"2,4,2x8", "2,4,2x8", "16x2"} {
		row := regexp.MustCompile(fmt.Sprintf(`(?m)^  %d +%s +\d+`, i, regexp.QuoteMeta(shape)))
		if !row.MatchString(out) {
			t.Errorf("no row for node %d (%s) in:\n%s", i, shape, out)
		}
	}
	if !strings.Contains(out, "completed 300/300") {
		t.Errorf("not every job completed:\n%s", out)
	}
}
