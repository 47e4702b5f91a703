package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func scenarioConfig(workers int) Config {
	sp := scenario.MustParse("poisson:jobs=200;slo=deadline:slack=1.5,classes=hi@0.25")
	return Config{
		Arrivals:     999, // must be overridden by the spec's jobs=200
		Utilizations: []float64{0.5, 0.9},
		Systems:      []string{"base", "proposed"},
		Seed:         1,
		Workers:      workers,
		Scenarios:    []scenario.Spec{sp},
	}
}

// TestScenarioSweepCSVGolden pins the scenario sweep CSV byte for byte:
// the deadline/SLO columns, the scenario source in the model column, and
// the metric values of a fixed grid. Regenerate with
// `go test -run ScenarioSweepCSVGolden -update .` after an intentional
// format change.
func TestScenarioSweepCSVGolden(t *testing.T) {
	db, em, pred := setup(t)
	points, err := Run(db, em, pred, scenarioConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	path := filepath.Join("testdata", "scenario_sweep.golden")
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
		t.Errorf("scenario sweep CSV drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	header := strings.SplitN(got, "\n", 2)[0]
	for _, col := range []string{"deadlines", "deadline_misses", "miss_rate_pct", "slo_migrations", "p999_cycles"} {
		if !strings.Contains(header, col) {
			t.Errorf("scenario CSV header missing %q: %s", col, header)
		}
	}
	for i, p := range points {
		if p.Scenario.Source != "poisson" {
			t.Errorf("point %d scenario %q, want poisson", i, p.Scenario.Source)
		}
		if p.Metrics.Completed != 200 {
			t.Errorf("point %d completed %d; jobs=200 override ignored", i, p.Metrics.Completed)
		}
		if p.Metrics.DeadlinesTotal != 200 {
			t.Errorf("point %d deadlines %d, want 200", i, p.Metrics.DeadlinesTotal)
		}
	}
}

// TestScenarioRateCollapsesUtilizations checks that a spec pinning rate=
// replaces the sweep's utilization axis: one grid column at the spec's
// offered load — mirroring the hmsweep acceptance spec
// "poisson:rate=0.9,jobs=5000;slo=deadline:slack=1.5" at test scale.
func TestScenarioRateCollapsesUtilizations(t *testing.T) {
	db, em, pred := setup(t)
	sp := scenario.MustParse("poisson:rate=0.9,jobs=150;slo=deadline:slack=1.5")
	points, err := Run(db, em, pred, Config{
		Arrivals: 999, Utilizations: []float64{0.5, 0.7, 0.9},
		Systems: []string{"base", "proposed"}, Seed: 1, Scenarios: []scenario.Spec{sp},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("rate-pinned scenario produced %d points, want 2 (one utilization x two systems)", len(points))
	}
	for _, p := range points {
		if p.Utilization != 0.9 {
			t.Errorf("utilization %v, want the spec's 0.9", p.Utilization)
		}
	}
}

// TestScenarioSweepWorkerInvariance extends the sweep's determinism
// contract to scenario grids: the CSV must be byte-identical at any worker
// count — the hmsweep acceptance criterion.
func TestScenarioSweepWorkerInvariance(t *testing.T) {
	db, em, pred := setup(t)
	render := func(workers int) ([]Point, string) {
		points, err := Run(db, em, pred, scenarioConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return points, buf.String()
	}
	serialPoints, serial := render(1)
	parallelPoints, parallel := render(8)
	if serial != parallel {
		t.Fatal("scenario sweep CSV differs between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(serialPoints, parallelPoints) {
		t.Fatal("scenario sweep points differ between Workers=1 and Workers=8")
	}
}

// TestLegacyCSVFreeOfScenarioColumns is the no-op invariance criterion: a
// sweep without a scenario must emit the legacy CSV with no trace of the
// scenario columns, and its model column keeps the arrival-model name.
func TestLegacyCSVFreeOfScenarioColumns(t *testing.T) {
	db, em, pred := setup(t)
	points, err := Run(db, em, pred, Config{
		Arrivals: 150, Utilizations: []float64{0.7},
		Systems: []string{"base", "proposed"}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"miss_rate_pct", "slo_migrations", "deadline", "p999"} {
		if strings.Contains(buf.String(), col) {
			t.Errorf("legacy CSV contains scenario column %q", col)
		}
	}
	if !strings.Contains(buf.String(), "uniform") {
		t.Error("legacy CSV lost the arrival-model column")
	}
}

// TestMultiScenarioGrid checks a grid over several specs: one row per
// (utilization, scenario, system) in grid order with each spec's source
// in the arrival_model column, the deadline/SLO columns iff some spec has
// an SLO section, and jobs=/rate= rejected once the grid has more than
// one spec.
func TestMultiScenarioGrid(t *testing.T) {
	db, em, pred := setup(t)
	render := func(specs ...string) (string, error) {
		cfg := Config{
			Arrivals: 120, Utilizations: []float64{0.6, 0.9},
			Systems: []string{"base", "proposed"}, Seed: 2, Workers: 2,
		}
		for _, s := range specs {
			cfg.Scenarios = append(cfg.Scenarios, scenario.MustParse(s))
		}
		points, err := Run(db, em, pred, cfg)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String(), nil
	}

	plain, err := render("uniform", "bursty", "closed")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(plain), "\n")
	if len(lines) != 1+2*3*2 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+2*3*2)
	}
	if strings.Contains(lines[0], "deadlines") {
		t.Errorf("SLO-free grid has deadline columns: %s", lines[0])
	}
	for i, line := range lines[1:] {
		want := []string{"uniform", "bursty", "closed"}[i/2%3]
		if got := strings.Split(line, ",")[1]; got != want {
			t.Errorf("row %d arrival_model %q, want %q", i, got, want)
		}
	}

	mixed, err := render("uniform", "poisson;slo=deadline")
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(mixed, "\n")
	if !strings.HasSuffix(header, ",deadlines,deadline_misses,miss_rate_pct,slo_migrations,p999_cycles") {
		t.Errorf("grid with an SLO spec lacks the deadline columns: %s", header)
	}
	if !strings.HasPrefix(rest, "0.60,uniform,base,") {
		t.Errorf("first row not the first cell: %s", rest)
	}

	for _, pinned := range []string{"poisson:jobs=50", "poisson:rate=0.7"} {
		if _, err := render("uniform", pinned); err == nil {
			t.Errorf("multi-spec grid accepted %s", pinned)
		}
	}
}
