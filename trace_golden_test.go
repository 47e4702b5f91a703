package hetsched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/fault"
	"hetsched/internal/trace"
)

// traceGoldenSeparator splits the golden file into its Chrome JSON and CSV
// sections; both renderings of the same run are pinned in one file.
const traceGoldenSeparator = "--- csv ---\n"

// tracedGoldenRun executes the golden workload (the same 40-arrival,
// seed-31 run under the scripted fault plan that schedule_timeline.golden
// pins) with the decision-audit recorder attached.
func tracedGoldenRun(t testing.TB, sys *System) []TraceEvent {
	t.Helper()
	jobs, err := sys.Workload(40, 0.6, 31)
	if err != nil {
		t.Fatal(err)
	}
	sim := SimConfig{Trace: NewTraceRecorder()}
	sim.Faults = fault.Plan{Script: []fault.Event{
		{Cycle: 1_000_000, Core: 1, Kind: fault.CrashTransient},
		{Cycle: 1_300_000, Core: 1, Kind: fault.Recover},
		{Cycle: 900_000, Core: 2, Kind: fault.StuckReconfig},
	}}
	if _, err := sys.RunSystem("proposed", jobs, sim); err != nil {
		t.Fatal(err)
	}
	return sim.Trace.Events()
}

// TestTraceExportersGolden pins both trace exporters byte-for-byte: the
// Chrome trace-event JSON (the -trace file.json / Perfetto format) and the
// flat CSV of the same faulted run. Regenerate with
// `go test -run TraceExportersGolden -update .` after an intentional format
// change.
func TestTraceExportersGolden(t *testing.T) {
	sys := oracleSystem(t)
	events := tracedGoldenRun(t, sys)

	var chrome, csv bytes.Buffer
	if err := trace.WriteChrome(&chrome, events); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&csv, events); err != nil {
		t.Fatal(err)
	}
	got := chrome.String() + traceGoldenSeparator + csv.String()

	path := filepath.Join("testdata", "trace_timeline.golden")
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
		t.Errorf("trace exporters drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The Chrome section must be loadable as trace-event JSON — valid JSON,
	// the traceEvents array, complete ("X") events carrying durations and
	// instant ("i") events carrying the thread scope — so a regeneration
	// cannot silently pin a file Perfetto would refuse.
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Ph    string  `json:"ph"`
			Dur   *uint64 `json:"dur"`
			Scope string  `json:"s"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) <= len(events) {
		t.Errorf("chrome export has %d records for %d events (metadata missing?)", len(doc.TraceEvents), len(events))
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				t.Errorf("complete event %q without dur", ev.Name)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant event %q without thread scope", ev.Name)
			}
		case "M":
		default:
			t.Errorf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}

	// The golden content must carry the faulted run's audit markers, so a
	// regeneration cannot pin a fault-free or decision-free trace.
	for _, marker := range []string{"crash", "stuck", "recover", "kill", "tune", "predict", "complete", "features=["} {
		if !strings.Contains(got, marker) {
			t.Errorf("golden trace missing %q", marker)
		}
	}

	// The CSV section must round-trip through the reader to the exact
	// event stream it was written from.
	back, err := trace.ReadCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Error("CSV section does not round-trip to the recorded events")
	}
}

// TestTraceWorkerCountInvariant pins the tentpole's parallelism contract:
// the recorded event stream is identical whether the system was built with
// one setup worker or eight — characterization/training parallelism must
// never leak into the decision audit.
func TestTraceWorkerCountInvariant(t *testing.T) {
	sys1, err := New(Options{Spec: MustParsePredictorSpec("oracle"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys8, err := New(Options{Spec: MustParsePredictorSpec("oracle"), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ev1 := tracedGoldenRun(t, sys1)
	ev8 := tracedGoldenRun(t, sys8)
	if !reflect.DeepEqual(ev1, ev8) {
		t.Fatalf("trace differs between -j 1 (%d events) and -j 8 (%d events)", len(ev1), len(ev8))
	}
}
