package core

import (
	"testing"

	"hetsched/internal/energy"
)

func TestPreloadEliminatesProfiling(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.8, 19)
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
		OraclePredictor{DB: db}, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Preload(false); err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProfilingRuns != 0 {
		t.Errorf("preloaded system still profiled %d times", m.ProfilingRuns)
	}
	if m.TuningRuns == 0 {
		t.Error("profile-only preload should still leave tuning to runtime")
	}
	if m.Completed != len(jobs) {
		t.Errorf("completed %d of %d", m.Completed, len(jobs))
	}
}

func TestFullPreloadEliminatesTuningToo(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.8, 19)
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
		OraclePredictor{DB: db}, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Preload(true); err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProfilingRuns != 0 || m.TuningRuns != 0 {
		t.Errorf("full preload left %d profiling and %d tuning runs",
			m.ProfilingRuns, m.TuningRuns)
	}
	if m.ProfilingEnergy != 0 {
		// Reconfiguration overhead still accrues; only the profiling runs
		// themselves disappear. Just check it is not profiling-run sized.
		perRun := float64(DefaultSimConfig().ProfilingCycles) * energy.NewDefault().Params().CoreActiveNJPerCycle
		if m.ProfilingEnergy > perRun*float64(len(jobs))/10 {
			t.Errorf("overhead energy %v implausibly high for zero profiling runs", m.ProfilingEnergy)
		}
	}
}

// Warm start must not cost energy versus cold start: the cold system pays
// for profiling executions and early mis-tuned runs that the warm system
// skips.
func TestPreloadSavesEnergy(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.8, 20)
	run := func(preload bool) Metrics {
		sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
			OraclePredictor{DB: db}, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		if preload {
			if err := sim.Preload(true); err != nil {
				t.Fatal(err)
			}
		}
		m, err := sim.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cold := run(false)
	warm := run(true)
	if warm.TotalEnergy() > cold.TotalEnergy()*1.001 {
		t.Errorf("warm start (%.0f) cost more than cold start (%.0f)",
			warm.TotalEnergy(), cold.TotalEnergy())
	}
	t.Logf("cold %.0f nJ -> warm %.0f nJ (%.2f%% saved)",
		cold.TotalEnergy(), warm.TotalEnergy(),
		100*(1-warm.TotalEnergy()/cold.TotalEnergy()))
}

func TestPreloadRequiresPredictorForPrediction(t *testing.T) {
	db := testDB(t)
	// Without a predictor, Preload still installs profiles (for optimal/
	// sat-style systems) but no predictions.
	sim, err := NewSimulator(db, energy.NewDefault(), OptimalPolicy{}, nil, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Preload(false); err != nil {
		t.Fatal(err)
	}
	entry := sim.Table.Ensure(0)
	if !entry.Profiled {
		t.Fatal("profile not preloaded")
	}
	if entry.PredictedSizeKB != 0 {
		t.Error("prediction appeared without a predictor")
	}
}
