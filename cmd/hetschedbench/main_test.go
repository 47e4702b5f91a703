package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
	os.Args = append([]string{"hetschedbench"}, args...)
	flag.CommandLine = flag.NewFlagSet("hetschedbench", flag.PanicOnError)
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

// tiny is an in-process daemon and a load small enough for a smoke test.
var tiny = []string{"-requests", "4", "-concurrency", "2", "-arrivals", "20", "-workers", "2", "-predictor", "oracle"}

// TestModesSmoke runs the benchmark against its in-process daemon in each
// request mode — a scenario on /v1/schedule, an SLO scenario on a
// two-node cluster, and batches — and checks that it exits cleanly with
// every request answered and none failed.
func TestModesSmoke(t *testing.T) {
	for name, args := range map[string][]string{
		"scenario": {"-scenario", "poisson;mix=a2time*3+tblook"},
		"cluster":  {"-cluster", "2*quad", "-scenario", "bursty;slo=deadline:slack=1.5,classes=hi@0.3"},
		"batch":    {"-batch", "4"},
	} {
		out, err := runCLI(t, append(append([]string(nil), tiny...), args...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		if !strings.Contains(out, "requests:    4 total, 4 ok, 0 backpressured (429), 0 failed") {
			t.Errorf("%s: not every request succeeded:\n%s", name, out)
		}
		if name == "cluster" && !strings.Contains(out, "slo view:") {
			t.Errorf("cluster: the scenario's deadlines never reached the daemon:\n%s", out)
		}
	}
}

// TestScenarioRejectsBatch: a scenario generates its own jobs, so it does
// not combine with an explicit batch.
func TestScenarioRejectsBatch(t *testing.T) {
	if _, err := runCLI(t, "-batch", "4", "-scenario", "poisson"); err == nil || !strings.Contains(err.Error(), "-batch") {
		t.Errorf("-scenario with -batch: err = %v, want the -batch refusal", err)
	}
}
