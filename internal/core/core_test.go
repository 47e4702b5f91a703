package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/characterize"
	"hetsched/internal/energy"
	"hetsched/internal/stats"
)

func testDB(t testing.TB) *characterize.DB {
	t.Helper()
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testJobs(t testing.TB, db *characterize.DB, n int, util float64, seed int64) []Job {
	t.Helper()
	ids := AllAppIDs(db)
	horizon, err := HorizonForUtilization(db, ids, n, 4, util)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GenerateWorkload(WorkloadConfig{
		Arrivals: n, AppIDs: ids, HorizonCycles: horizon, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestNewSimulatorValidation(t *testing.T) {
	db := testDB(t)
	em := energy.NewDefault()
	if _, err := NewSimulator(nil, em, BasePolicy{}, nil, DefaultSimConfig()); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := NewSimulator(db, nil, BasePolicy{}, nil, DefaultSimConfig()); err == nil {
		t.Error("nil energy model accepted")
	}
	if _, err := NewSimulator(db, em, nil, nil, DefaultSimConfig()); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewSimulator(db, em, BasePolicy{}, nil, SimConfig{}); err == nil {
		t.Error("no cores accepted")
	}
	bad := DefaultSimConfig()
	bad.CoreSizesKB = []int{3}
	if _, err := NewSimulator(db, em, BasePolicy{}, nil, bad); err == nil {
		t.Error("off-design-space core size accepted")
	}
}

func TestDefaultSimConfigMatchesFigure1(t *testing.T) {
	cfg := DefaultSimConfig()
	want := []int{2, 4, 8, 8}
	if len(cfg.CoreSizesKB) != len(want) {
		t.Fatalf("cores = %v", cfg.CoreSizesKB)
	}
	for i := range want {
		if cfg.CoreSizesKB[i] != want[i] {
			t.Errorf("core %d size %d, want %d", i, cfg.CoreSizesKB[i], want[i])
		}
	}
}

func TestBaseSystemRunsEverythingInBaseConfig(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 300, 0.7, 2)
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil,
		SimConfig{CoreSizesKB: BaseCoreSizes(4), ReconfigCycles: 200, ProfilingCycles: 2000})
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
	if m.ProfilingRuns != 0 || m.TuningRuns != 0 || m.StallDecisions != 0 {
		t.Errorf("base system performed scheduling it should not: %+v", m)
	}
	for _, c := range sim.Cores() {
		if c.Config != cache.BaseConfig {
			t.Errorf("core %d left in %s", c.ID, c.Config)
		}
	}
}

func TestProfilingHappensOncePerApp(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.7, 3)
	for _, pol := range []Policy{OptimalPolicy{}, EnergyCentricPolicy{}, ProposedPolicy{}} {
		var pred Predictor
		if pol.Name() != "optimal" {
			pred = OraclePredictor{DB: db}
		}
		sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run(jobs)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		distinct := map[int]bool{}
		for _, j := range jobs {
			distinct[j.AppID] = true
		}
		if m.ProfilingRuns != len(distinct) {
			t.Errorf("%s: %d profiling runs, want %d (once per app)",
				pol.Name(), m.ProfilingRuns, len(distinct))
		}
		if m.Completed != len(jobs) {
			t.Errorf("%s: completed %d of %d", pol.Name(), m.Completed, len(jobs))
		}
	}
}

func TestEnergyCentricNeverUsesNonBestCores(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.7, 4)
	sim, err := NewSimulator(db, energy.NewDefault(), EnergyCentricPolicy{},
		OraclePredictor{DB: db}, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.NonBestPlacements != 0 {
		t.Errorf("energy-centric placed %d jobs on non-best cores", m.NonBestPlacements)
	}
	if m.StallDecisions == 0 {
		t.Error("energy-centric never stalled; contention too low to test anything")
	}
}

func TestPoliciesRequirePredictor(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 50, 0.5, 1)
	for _, pol := range []Policy{EnergyCentricPolicy{}, ProposedPolicy{}} {
		sim, err := NewSimulator(db, energy.NewDefault(), pol, nil, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(jobs); err == nil || !strings.Contains(err.Error(), "predictor") {
			t.Errorf("%s without predictor ran: %v", pol.Name(), err)
		}
	}
}

func TestProposedExplorationBounded(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 600, 0.8, 5)
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
		OraclePredictor{DB: db}, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.TuningRuns == 0 {
		t.Error("proposed system never invoked the tuning heuristic")
	}
	// The paper: the heuristic explores 3–9 of 18 configurations per core
	// and no benchmark explored more than 6 per core. Across all three
	// sizes plus the base profiling configuration, an app can never see
	// more than 3+5+5+1 distinct configurations.
	for app, n := range m.ExploredPerApp {
		if n > 14 {
			t.Errorf("app %d explored %d configurations; exceeds heuristic bound", app, n)
		}
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 300, 0.8, 6)
	run := func() Metrics {
		sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
			OraclePredictor{DB: db}, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("identical runs diverged")
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	db := testDB(t)
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil,
		SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestOraclePredictor(t *testing.T) {
	db := testDB(t)
	o := OraclePredictor{DB: db}
	for i := range db.Records {
		got, err := o.PredictSizeKB(db.Records[i].Features)
		if err != nil {
			t.Fatal(err)
		}
		if want := db.Records[i].BestSizeKB(); got != want {
			t.Errorf("oracle predicted %d for %s, want %d", got, db.Records[i].Kernel, want)
		}
	}
	// Slightly perturbed features (injected counter noise) resolve to the
	// nearest record instead of erroring.
	noisy := db.Records[0].Features
	for d := range noisy {
		noisy[d] *= 1.001
	}
	got, err := o.PredictSizeKB(noisy)
	if err != nil {
		t.Fatalf("oracle rejected near-match features: %v", err)
	}
	if want := db.Records[0].BestSizeKB(); got != want {
		t.Errorf("oracle predicted %d for noisy %s, want %d", got, db.Records[0].Kernel, want)
	}
	empty := OraclePredictor{DB: &characterize.DB{}}
	if _, err := empty.PredictSizeKB(noisy); err == nil {
		t.Error("empty oracle predicted")
	}
	if got, err := (FixedPredictor{SizeKB: 4}).PredictSizeKB(stats.Features{}); err != nil || got != 4 {
		t.Errorf("fixed predictor returned %d, %v", got, err)
	}
}

func TestMetricsTotals(t *testing.T) {
	m := Metrics{
		IdleEnergy:      1,
		DynamicEnergy:   2,
		StaticEnergy:    3,
		CoreEnergy:      4,
		ProfilingEnergy: 5,
	}
	if got := m.TotalEnergy(); got != 15 {
		t.Errorf("TotalEnergy = %v", got)
	}
	if got := m.BusyEnergy(); got != 14 {
		t.Errorf("BusyEnergy = %v", got)
	}
}

func BenchmarkProposedSimulation(b *testing.B) {
	db, err := characterize.Default()
	if err != nil {
		b.Fatal(err)
	}
	jobs := testJobs(b, db, 500, 0.9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
			OraclePredictor{DB: db}, DefaultSimConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultedSimulation runs the optimal system under crashPlan: the
// queue backs up behind crashed cores, so every event's scheduling pass
// meets a long queue.
func BenchmarkFaultedSimulation(b *testing.B) {
	db, err := characterize.Default()
	if err != nil {
		b.Fatal(err)
	}
	jobs := testJobs(b, db, 500, 0.9, 1)
	cfg := DefaultSimConfig()
	cfg.Faults = crashPlan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(db, energy.NewDefault(), OptimalPolicy{}, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDesignByNameMatchesExploredOrder pins the tie-break order of the
// explored-best scans: designByName lists each Table 1 configuration once,
// in ascending String() order.
func TestDesignByNameMatchesExploredOrder(t *testing.T) {
	if len(designByName) != len(cache.DesignSpace()) {
		t.Fatalf("designByName has %d configurations, want %d", len(designByName), len(cache.DesignSpace()))
	}
	for i, cfg := range designByName {
		if !slices.Contains(cache.DesignSpace(), cfg) {
			t.Errorf("designByName[%d] = %s is not in Table 1", i, cfg)
		}
		if i > 0 && designByName[i-1].String() >= cfg.String() {
			t.Errorf("designByName not in ascending String() order at %d: %s, %s", i, designByName[i-1], cfg)
		}
	}
}
