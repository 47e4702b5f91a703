package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsched/internal/eembc"
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
	os.Args = append([]string{"cachetune"}, args...)
	flag.CommandLine = flag.NewFlagSet("cachetune", flag.PanicOnError)
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

// TestEnginesPrintIdenticalSweeps: the stream engine and the replay
// reference print the same sweep table and tuning walk for one kernel.
func TestEnginesPrintIdenticalSweeps(t *testing.T) {
	walk := filepath.Join(t.TempDir(), "walk.csv")
	stream, err := runCLI(t, "-kernel", "tblook", "-engine", "stream", "-trace", walk)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	replay, err := runCLI(t, "-kernel", "tblook", "-engine", "replay")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stream != replay {
		t.Errorf("engines print different output:\n--- stream\n%s\n--- replay\n%s", stream, replay)
	}
	for _, want := range []string{"kernel tblook", "8KB_4W_64B", "oracle best configuration", "tuning heuristic"} {
		if !strings.Contains(stream, want) {
			t.Errorf("output lacks %q:\n%s", want, stream)
		}
	}
	if fi, err := os.Stat(walk); err != nil || fi.Size() == 0 {
		t.Errorf("-trace wrote no tuning walk: %v", err)
	}
}

// TestFromTraceBothEngines sweeps a trace file written by the VM's trace
// format under both engines: same table either way.
func TestFromTraceBothEngines(t *testing.T) {
	k, err := eembc.ByName("a2time")
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := eembc.Record(k, eembc.Params{Scale: 1, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a2time.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stream, err := runCLI(t, "-fromtrace", path)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	replay, err := runCLI(t, "-fromtrace", path, "-engine", "replay")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stream != replay {
		t.Errorf("engines sweep the trace differently:\n--- stream\n%s\n--- replay\n%s", stream, replay)
	}
	if want := fmt.Sprintf("%d accesses", tr.Len()); !strings.Contains(stream, want) {
		t.Errorf("output lacks %q:\n%s", want, stream)
	}
	if got := strings.Count(stream, " nJ\n"); got != 18 {
		t.Errorf("sweep printed %d configuration rows, want 18:\n%s", got, stream)
	}
}

// TestRejectsUnknownEngine: -engine accepts only stream and replay.
func TestRejectsUnknownEngine(t *testing.T) {
	for _, engine := range []string{"onepass", "quantum"} {
		if _, err := runCLI(t, "-engine", engine, "-space"); err == nil {
			t.Errorf("-engine %s accepted", engine)
		}
	}
}

// TestListAndSpace covers the two informational exits.
func TestListAndSpace(t *testing.T) {
	list, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list, "tblook") {
		t.Errorf("-list lacks tblook:\n%s", list)
	}
	space, err := runCLI(t, "-space")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(space, "8KB_4W_64B") {
		t.Errorf("-space lacks the base configuration:\n%s", space)
	}
}
