package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/scenario"
)

func setup(t testing.TB) (*characterize.DB, *energy.Model, core.Predictor) {
	t.Helper()
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	return db, energy.NewDefault(), core.OraclePredictor{DB: db}
}

func TestRunGridShape(t *testing.T) {
	db, em, pred := setup(t)
	cfg := Config{
		Arrivals:     300,
		Utilizations: []float64{0.5, 0.9},
		Scenarios:    []scenario.Spec{scenario.MustParse("uniform"), scenario.MustParse("poisson")},
		Systems:      []string{"base", "proposed"},
		Seed:         3,
	}
	points, err := Run(db, em, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(points) != want {
		t.Fatalf("grid produced %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Metrics.Completed != cfg.Arrivals {
			t.Errorf("%s u=%.2f %s: completed %d", p.System, p.Utilization, p.Scenario, p.Metrics.Completed)
		}
		if p.System == "base" && p.SavingVsBasePct != 0 {
			t.Errorf("base row has nonzero saving %.2f", p.SavingVsBasePct)
		}
		if p.System == "proposed" && p.SavingVsBasePct <= 0 {
			t.Errorf("proposed saving %.2f at u=%.2f %s; should beat base",
				p.SavingVsBasePct, p.Utilization, p.Scenario)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	db, em, pred := setup(t)
	points, err := Run(db, em, pred, Config{Arrivals: 200, Utilizations: []float64{0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("default systems produced %d points", len(points))
	}
}

func TestRunValidation(t *testing.T) {
	db, em, pred := setup(t)
	if _, err := Run(nil, em, pred, Config{}); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := Run(db, nil, pred, Config{}); err == nil {
		t.Error("nil energy model accepted")
	}
	if _, err := Run(db, em, nil, Config{Arrivals: 100, Systems: []string{"proposed"}, Utilizations: []float64{0.5}}); err == nil {
		t.Error("predictor-requiring system without predictor accepted")
	}
	if _, err := Run(db, em, pred, Config{Systems: []string{"nope"}, Arrivals: 100, Utilizations: []float64{0.5}}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	db, em, pred := setup(t)
	points, err := Run(db, em, pred, Config{
		Arrivals: 150, Utilizations: []float64{0.7},
		Systems: []string{"base", "sat", "proposed"}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(points) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(points))
	}
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Errorf("row has %d fields, header has %d: %s", got, len(header), line)
		}
	}
	if !strings.Contains(buf.String(), "sat") {
		t.Error("CSV missing the sat system")
	}
}

func TestRegistryCoversAllSystems(t *testing.T) {
	for _, name := range core.SystemNames() {
		pol, _, err := core.NewPolicy(name)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if pol.Name() != name {
			t.Errorf("policy %q reports name %q", name, pol.Name())
		}
	}
	if _, _, err := core.NewPolicy("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
	sizes := core.CoreSizesFor("base", []int{2, 4, 8, 8})
	for _, s := range sizes {
		if s != 8 {
			t.Errorf("base core sizes %v; want all 8KB", sizes)
		}
	}
	got := core.CoreSizesFor("proposed", []int{2, 4, 8, 8})
	if len(got) != 4 || got[0] != 2 {
		t.Errorf("proposed core sizes %v", got)
	}
}

// TestZeroPlanCSVByteIdentical is the PR's no-op invariance criterion at the
// sweep level: a zero-value fault plan (even with a Seed set) must produce
// the legacy CSV byte-for-byte.
func TestZeroPlanCSVByteIdentical(t *testing.T) {
	db, em, pred := setup(t)
	base := Config{
		Arrivals: 200, Utilizations: []float64{0.7},
		Systems: []string{"base", "proposed"}, Seed: 5,
	}
	render := func(cfg Config) string {
		points, err := Run(db, em, pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain := render(base)

	seeded := base
	seeded.Sim.Faults = fault.Plan{Seed: 4242} // Seed alone does not enable the plan
	if got := render(seeded); got != plain {
		t.Errorf("zero-value fault plan changed the CSV:\nwithout:\n%s\nwith:\n%s", plain, got)
	}
	if strings.Contains(plain, "fault_events") {
		t.Error("fault columns appeared in a fault-free sweep")
	}
}

// TestFaultedSweepWorkerInvariance is the PR's determinism criterion: a
// fixed-seed fault plan must reproduce identical metrics (timelines
// included) at any worker count.
func TestFaultedSweepWorkerInvariance(t *testing.T) {
	db, em, pred := setup(t)
	mk := func(workers int) Config {
		cfg := Config{
			Arrivals: 250, Utilizations: []float64{0.6, 0.9},
			Systems: []string{"base", "proposed"}, Seed: 11, Workers: workers,
		}
		cfg.Sim.Faults = fault.Plan{
			Seed:           7,
			TransientMTTF:  3_000_000,
			RecoveryCycles: 80_000,
			StuckMTTF:      9_000_000,
			CounterNoise:   0.05,
		}
		return cfg
	}
	serial, err := Run(db, em, pred, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(db, em, pred, mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("faulted sweep differs between Workers=1 and Workers=4")
	}
	anyFaulted := false
	for _, p := range serial {
		if !p.Metrics.FaultInjected {
			t.Errorf("%s u=%.2f: FaultInjected false under an enabled plan", p.System, p.Utilization)
		}
		if p.Metrics.FaultEvents > 0 {
			anyFaulted = true
		}
	}
	if !anyFaulted {
		t.Error("no grid cell recorded a fault event; MTTF too large for the horizon?")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, serial); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "fault_events") {
		t.Error("faulted sweep CSV missing fault columns")
	}
}
