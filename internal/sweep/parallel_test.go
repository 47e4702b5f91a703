package sweep

import (
	"bytes"
	"testing"

	"hetsched/internal/scenario"
)

// TestParallelSweepDeterminism is the tentpole invariant for the sweep
// engine: the rendered CSV must be byte-identical for any worker count.
func TestParallelSweepDeterminism(t *testing.T) {
	db, em, pred := setup(t)
	base := Config{
		Arrivals:     250,
		Utilizations: []float64{0.5, 0.9},
		Scenarios:    []scenario.Spec{scenario.MustParse("uniform"), scenario.MustParse("poisson")},
		Systems:      []string{"base", "sat", "proposed"},
		Seed:         11,
	}
	render := func(workers int) string {
		cfg := base
		cfg.Workers = workers
		points, err := Run(db, em, pred, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); got != serial {
			t.Fatalf("CSV from %d workers differs from serial output", workers)
		}
	}
}

// TestCellSeedDecorrelates pins the per-cell seed derivation: distinct
// cells get distinct seeds, the same cell always gets the same seed, and
// seeds stay non-negative (GenerateWorkload's contract).
func TestCellSeedDecorrelates(t *testing.T) {
	seen := map[int64]string{}
	for ui := 0; ui < 4; ui++ {
		for mi := 0; mi < 3; mi++ {
			s := cellSeed(42, ui, mi)
			if s < 0 {
				t.Fatalf("cellSeed(42, %d, %d) = %d is negative", ui, mi, s)
			}
			if s != cellSeed(42, ui, mi) {
				t.Fatalf("cellSeed(42, %d, %d) not deterministic", ui, mi)
			}
			key := string(rune('a'+ui)) + string(rune('a'+mi))
			if prev, dup := seen[s]; dup {
				t.Fatalf("cells %s and %s share seed %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if cellSeed(1, 0, 0) == cellSeed(2, 0, 0) {
		t.Error("sweep seed does not influence cell seeds")
	}
}

// TestRunPartialResults: a sweep where one cell faults must still return
// every completed grid point, in grid order, alongside the error.
func TestRunPartialResults(t *testing.T) {
	db, em, pred := setup(t)
	points, err := Run(db, em, pred, Config{
		Arrivals: 150,
		// -1 is rejected by HorizonForUtilization, faulting the second
		// cell; the first must survive.
		Utilizations: []float64{0.5, -1},
		Systems:      []string{"base", "proposed"},
		Seed:         5,
	})
	if err == nil {
		t.Fatal("faulting cell produced no error")
	}
	if len(points) != 2 {
		t.Fatalf("got %d completed points, want 2 (the healthy cell's systems)", len(points))
	}
	for _, p := range points {
		if p.Utilization != 0.5 {
			t.Errorf("point from the faulted cell leaked through: u=%.2f", p.Utilization)
		}
		if p.Metrics.Completed != 150 {
			t.Errorf("%s: completed %d, want 150", p.System, p.Metrics.Completed)
		}
	}
}
