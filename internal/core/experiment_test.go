package core

import (
	"context"
	"testing"

	"hetsched/internal/energy"
)

// The headline reproduction test: all of the paper's qualitative results
// must hold on the four-system experiment. Run with the oracle predictor so
// the test does not depend on ANN training time; the ANN-driven variant is
// exercised in the repository-level benches.
func TestExperimentReproducesPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system simulation; skipped in -short")
	}
	db := testDB(t)
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 2000
	res, err := RunExperimentContext(context.Background(), db, energy.NewDefault(), OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, opt, ec, prop := res.Base, res.Optimal, res.EnergyCentric, res.Proposed

	// Every system completes the whole workload.
	for _, m := range res.Systems() {
		if m.Completed != cfg.Arrivals {
			t.Fatalf("%s completed %d of %d jobs", m.System, m.Completed, cfg.Arrivals)
		}
	}

	// (1) The proposed system has the lowest total energy of all four
	// (abstract: 28% below the base system).
	for _, m := range []Metrics{base, opt, ec} {
		if prop.TotalEnergy() >= m.TotalEnergy() {
			t.Errorf("proposed total %.0f not below %s total %.0f",
				prop.TotalEnergy(), m.System, m.TotalEnergy())
		}
	}
	saving := 1 - prop.TotalEnergy()/base.TotalEnergy()
	t.Logf("proposed total-energy saving vs base: %.1f%% (paper: 28%%)", 100*saving)
	if saving < 0.15 || saving > 0.45 {
		t.Errorf("total saving %.1f%% far from the paper's 28%%", 100*saving)
	}

	// (2) The energy-centric system has the lowest dynamic energy
	// (paper: -58% vs base).
	for _, m := range []Metrics{base, opt, prop} {
		if ec.DynamicEnergy >= m.DynamicEnergy {
			t.Errorf("energy-centric dynamic %.0f not below %s dynamic %.0f",
				ec.DynamicEnergy, m.System, m.DynamicEnergy)
		}
	}

	// (3) The optimal system achieves only a modest total saving vs base
	// (paper: -6%; exploration and non-best-core execution eat the gains).
	optSaving := 1 - opt.TotalEnergy()/base.TotalEnergy()
	if optSaving < 0 {
		t.Errorf("optimal should still beat base: saving %.1f%%", 100*optSaving)
	}
	if optSaving >= saving {
		t.Errorf("optimal saving %.1f%% should trail proposed %.1f%%", 100*optSaving, 100*saving)
	}

	// (4) Performance (total job cycles): proposed < energy-centric <
	// optimal (paper: -25% and -17% vs optimal respectively).
	if !(prop.TurnaroundCycles < ec.TurnaroundCycles) {
		t.Errorf("proposed turnaround %d not below energy-centric %d",
			prop.TurnaroundCycles, ec.TurnaroundCycles)
	}
	if !(ec.TurnaroundCycles < opt.TurnaroundCycles) {
		t.Errorf("energy-centric turnaround %d not below optimal %d",
			ec.TurnaroundCycles, opt.TurnaroundCycles)
	}

	// (5) Proposed vs energy-centric decomposition (paper: idle -32%,
	// total -31%, dynamic +7%): proposed trades a little dynamic energy for
	// a large idle reduction.
	if prop.IdleEnergy >= ec.IdleEnergy {
		t.Errorf("proposed idle %.0f not below energy-centric idle %.0f",
			prop.IdleEnergy, ec.IdleEnergy)
	}
	if prop.DynamicEnergy <= ec.DynamicEnergy {
		t.Errorf("proposed dynamic %.0f should exceed energy-centric %.0f (the paper's +7%%)",
			prop.DynamicEnergy, ec.DynamicEnergy)
	}

	// (6) Profiling overhead below 1% of total energy (paper: < 0.5%).
	for _, m := range []Metrics{opt, ec, prop} {
		if frac := ProfilingOverheadFraction(m); frac > 0.01 {
			t.Errorf("%s profiling overhead %.2f%% exceeds 1%%", m.System, 100*frac)
		}
	}

	// Report the Figure 6/7 rows for the log.
	for _, r := range res.Figure6() {
		t.Logf("Fig6 %-14s idle=%.3f dyn=%.3f total=%.3f", r.System, r.Idle, r.Dynamic, r.Total)
	}
	for _, r := range res.Figure7() {
		t.Logf("Fig7 %-14s cycles=%.3f idle=%.3f dyn=%.3f total=%.3f",
			r.System, r.Cycles, r.Idle, r.Dynamic, r.Total)
	}
}

func TestExperimentValidation(t *testing.T) {
	db := testDB(t)
	if _, err := RunExperimentContext(context.Background(), db, energy.NewDefault(), nil, DefaultExperimentConfig()); err == nil {
		t.Error("experiment without predictor accepted")
	}
}

func TestNormalizeAgainstZeroReference(t *testing.T) {
	row := normalize(Metrics{System: "x"}, Metrics{})
	if row.Cycles != 0 || row.Idle != 0 || row.Dynamic != 0 || row.Total != 0 {
		t.Errorf("zero reference produced %+v", row)
	}
}

// A degenerate predictor must not crash the proposed system — it just
// degrades to a fixed-core schedule.
func TestProposedWithFixedPredictor(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 200, 0.6, 8)
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
		FixedPredictor{SizeKB: 8}, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(jobs) {
		t.Errorf("completed %d of %d", m.Completed, len(jobs))
	}
}

// Different seeds shift absolute numbers but not the headline ordering.
func TestOrderingRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation; skipped in -short")
	}
	db := testDB(t)
	for _, seed := range []int64{11, 23, 37, 53} {
		cfg := DefaultExperimentConfig()
		cfg.Arrivals = 1200
		cfg.Seed = seed
		res, err := RunExperimentContext(context.Background(), db, energy.NewDefault(), OraclePredictor{DB: db}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Proposed.TotalEnergy() >= res.Base.TotalEnergy() {
			t.Errorf("seed %d: proposed does not beat base", seed)
		}
		if res.EnergyCentric.DynamicEnergy >= res.Base.DynamicEnergy {
			t.Errorf("seed %d: energy-centric dynamic not below base", seed)
		}
		if res.Proposed.TurnaroundCycles >= res.Optimal.TurnaroundCycles {
			t.Errorf("seed %d: proposed turnaround not below optimal", seed)
		}
	}
}
