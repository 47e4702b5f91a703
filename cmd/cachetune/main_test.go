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
	"hetsched/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stdout drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// writeA2timeTrace saves the a2time kernel's memory trace (scale 1, one
// iteration, seed 1) in the VM's trace format and returns its path and
// access count.
func writeA2timeTrace(t *testing.T) (string, int) {
	t.Helper()
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
	return path, tr.Len()
}

// TestSweepGolden pins cachetune's stdout for one kernel byte for byte:
// the header, the energy-sorted sweep table, the oracle line and the
// Figure 5 tuning walk. -trace writes the walk to a file and must leave
// stdout alone. Regenerate with `go test ./cmd/cachetune -update` after an
// intentional format change.
func TestSweepGolden(t *testing.T) {
	walk := filepath.Join(t.TempDir(), "walk.csv")
	out, err := runCLI(t, "-kernel", "tblook", "-trace", walk)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_tblook.golden", out)
	if fi, err := os.Stat(walk); err != nil || fi.Size() == 0 {
		t.Errorf("-trace wrote no tuning walk: %v", err)
	}
}

// TestFromTraceGolden pins the -fromtrace sweep of a saved a2time trace.
// The trace's temporary path is replaced by its base name before the
// comparison.
func TestFromTraceGolden(t *testing.T) {
	path, accesses := writeA2timeTrace(t)
	out, err := runCLI(t, "-fromtrace", path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d accesses", accesses); !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	if got := strings.Count(out, " nJ\n"); got != 18 {
		t.Errorf("sweep printed %d configuration rows, want 18:\n%s", got, out)
	}
	checkGolden(t, "fromtrace_a2time.golden", strings.ReplaceAll(out, path, filepath.Base(path)))
}

// TestFromTraceEmpty pins the error for a trace with no accesses: a header
// with a zero count used to print NaN% on every row and exit 0.
func TestFromTraceEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(path, []byte("HTRC\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-fromtrace", path)
	if err == nil || !strings.Contains(err.Error(), "no accesses") {
		t.Fatalf("empty trace: err = %v, want a no-accesses error", err)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("empty trace printed NaN rows:\n%s", out)
	}
}

// TestFromTraceAddressBound pins the refusal of an address past the range
// -fromtrace simulates, instead of sizing the footprint bitset to it.
func TestFromTraceAddressBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "far.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &vm.Trace{Accesses: []vm.Access{{Addr: 64}, {Addr: 1 << 40, Write: true}}}
	if err := tr.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-fromtrace", path); err == nil || !strings.Contains(err.Error(), "0x10000000000") {
		t.Fatalf("far address: err = %v, want the address named", err)
	}
}

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
