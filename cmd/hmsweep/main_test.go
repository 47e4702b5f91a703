package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyHeader is the default sweep's CSV header, unchanged since the
// first sweep: scripts that plot hmsweep output key on it.
const legacyHeader = "utilization,arrival_model,system,total_nj,idle_nj,dynamic_nj," +
	"turnaround_cycles,p50_cycles,p99_cycles,stalls,nonbest,saving_vs_base_pct"

// runCLI drives run() as the binary would with the given arguments (after
// a tiny oracle-predicted, cache-free base) and returns what it printed to
// stdout and stderr. The global flag set is rebuilt with PanicOnError, so a
// flag the command rejects surfaces as an error here instead of exiting the
// test binary.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldStdout, oldStderr
	}()
	base := []string{"hmsweep", "-predictor", "oracle", "-cache-dir", "off", "-j", "2",
		"-arrivals", "60", "-utils", "0.6", "-systems", "base,proposed"}
	os.Args = append(base, args...)
	flag.CommandLine = flag.NewFlagSet("hmsweep", flag.PanicOnError)
	flag.CommandLine.SetOutput(io.Discard)

	capture := func() (*os.File, chan string) {
		r, w, perr := os.Pipe()
		if perr != nil {
			t.Fatal(perr)
		}
		out := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			out <- string(b)
		}()
		return w, out
	}
	outW, outC := capture()
	errW, errC := capture()
	os.Stdout, os.Stderr = outW, errW
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		err = run()
	}()
	outW.Close()
	errW.Close()
	return <-outC, <-errC, err
}

// csvLines splits CSV output into its header and rows.
func csvLines(t *testing.T, out string) (string, [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return lines[0], rows
}

// TestDefaultCSV checks the default sweep keeps the legacy header exactly,
// with one uniform row per utilization × system.
func TestDefaultCSV(t *testing.T) {
	out, _, err := runCLI(t)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	header, rows := csvLines(t, out)
	if header != legacyHeader {
		t.Errorf("header\n %s\nwant\n %s", header, legacyHeader)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2:\n%s", len(rows), out)
	}
	for _, r := range rows {
		if r[1] != "uniform" {
			t.Errorf("arrival_model %q, want uniform", r[1])
		}
	}
}

// TestModelsAxis sweeps every synthetic arrival process and checks one row
// per utilization × model × system in grid order, each naming its source.
func TestModelsAxis(t *testing.T) {
	models := []string{"uniform", "poisson", "bursty", "diurnal", "closed"}
	out, _, err := runCLI(t, "-models", strings.Join(models, ","), "-utils", "0.5,0.9")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	header, rows := csvLines(t, out)
	if header != legacyHeader {
		t.Errorf("header %s", header)
	}
	if len(rows) != 2*len(models)*2 {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), 2*len(models)*2, out)
	}
	for i, r := range rows {
		if want := models[i/2%len(models)]; r[1] != want {
			t.Errorf("row %d arrival_model %q, want %q", i, r[1], want)
		}
	}
}

// TestSLOScenarioColumnsAndTraceLabel checks that an SLO scenario appends
// the five deadline/SLO columns, and that -trace labels the traced cell
// with the scenario that generated it.
func TestSLOScenarioColumnsAndTraceLabel(t *testing.T) {
	const spec = "poisson:jobs=80;slo=deadline:slack=2"
	path := filepath.Join(t.TempDir(), "cell.csv")
	out, stderr, err := runCLI(t, "-scenario", spec, "-trace", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	header, rows := csvLines(t, out)
	if want := legacyHeader + ",deadlines,deadline_misses,miss_rate_pct,slo_migrations,p999_cycles"; header != want {
		t.Errorf("header\n %s\nwant\n %s", header, want)
	}
	for _, r := range rows {
		if r[1] != "poisson" {
			t.Errorf("arrival_model %q, want poisson", r[1])
		}
		if r[12] != "80" {
			t.Errorf("deadlines %q, want 80", r[12])
		}
	}
	if want := "scenario=" + spec + ", system=base"; !strings.Contains(stderr, want) {
		t.Errorf("trace label missing %q in:\n%s", want, stderr)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file not written: %v", err)
	}
}

// TestUnknownModel checks a -models name that is not a bare arrival
// source is an error.
func TestUnknownModel(t *testing.T) {
	for _, models := range []string{"uniform,bogus", "poisson:rate=0.5", "replay", ""} {
		if _, _, err := runCLI(t, "-models", models); err == nil {
			t.Errorf("-models %q accepted", models)
		}
	}
}
