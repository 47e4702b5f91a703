package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
)

// runWithFaults runs one system over a fixed workload with the given plan.
func runWithFaults(t *testing.T, pol Policy, pred Predictor, plan fault.Plan, arrivals int) Metrics {
	t.Helper()
	db := testDB(t)
	jobs := testJobs(t, db, arrivals, 0.7, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = plan
	sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroPlanBitIdentical is the invariance proof the issue demands: a
// simulation carrying the zero fault plan — and one carrying a seed-only
// plan, which is equally disabled — produces metrics deeply equal to a
// simulation with no fault machinery in the path at all.
func TestZeroPlanBitIdentical(t *testing.T) {
	db := testDB(t)
	pred := OraclePredictor{DB: db}
	for _, pol := range []Policy{BasePolicy{}, OptimalPolicy{}, EnergyCentricPolicy{}, ProposedPolicy{}} {
		var p Predictor
		if pol.Name() != "base" && pol.Name() != "optimal" {
			p = pred
		}
		plain := runWithFaults(t, pol, p, fault.Plan{}, 400)
		seeded := runWithFaults(t, pol, p, fault.Plan{Seed: 99}, 400)
		if !reflect.DeepEqual(plain, seeded) {
			t.Errorf("%s: zero plan and seed-only plan diverge", pol.Name())
		}
		if plain.FaultInjected || plain.FaultEvents != 0 || plain.FaultEnergyNJ != 0 {
			t.Errorf("%s: disabled plan reported fault activity: %+v", pol.Name(), plain)
		}
	}
}

// TestZeroPlanExperimentIdentical proves the full four-system experiment is
// unchanged by threading a disabled plan through ExperimentConfig.Sim.
func TestZeroPlanExperimentIdentical(t *testing.T) {
	db := testDB(t)
	em := energy.NewDefault()
	pred := OraclePredictor{DB: db}
	cfg := ExperimentConfig{Arrivals: 300, Utilization: 0.7, Seed: 5}
	a, err := RunExperiment(db, em, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Faults = fault.Plan{Seed: 123} // still disabled
	b, err := RunExperiment(db, em, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("experiment result changed under a disabled fault plan")
	}
}

// TestFaultedRunReproducible: identical plans give identical metrics,
// different seeds give different fault timelines.
func TestFaultedRunReproducible(t *testing.T) {
	db := testDB(t)
	pred := OraclePredictor{DB: db}
	plan := fault.Plan{Seed: 7, TransientMTTF: 3_000_000, RecoveryCycles: 100_000, StuckMTTF: 20_000_000, CounterNoise: 0.02}
	a := runWithFaults(t, ProposedPolicy{}, pred, plan, 500)
	b := runWithFaults(t, ProposedPolicy{}, pred, plan, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fault plan produced different metrics")
	}
	if !a.FaultInjected || a.FaultEvents == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
	plan.Seed = 8
	c := runWithFaults(t, ProposedPolicy{}, pred, plan, 500)
	if reflect.DeepEqual(a.FaultTimeline, c.FaultTimeline) {
		t.Fatal("different seeds produced identical fault timelines")
	}
}

// TestTransientCrashRedispatch: a scripted crash mid-run kills in-flight
// work, re-queues it, and the run still completes every job with sane
// degradation metrics.
func TestTransientCrashRedispatch(t *testing.T) {
	// The base policy keeps all cores busy from the start, so crashing
	// every core early guarantees in-flight kills.
	script := []fault.Event{
		{Cycle: 200_000, Core: 0, Kind: fault.CrashTransient},
		{Cycle: 200_000, Core: 1, Kind: fault.CrashTransient},
		{Cycle: 200_000, Core: 2, Kind: fault.CrashTransient},
		{Cycle: 200_000, Core: 3, Kind: fault.CrashTransient},
		{Cycle: 300_000, Core: 0, Kind: fault.Recover},
		{Cycle: 300_000, Core: 1, Kind: fault.Recover},
		{Cycle: 320_000, Core: 2, Kind: fault.Recover},
		{Cycle: 340_000, Core: 3, Kind: fault.Recover},
	}
	m := runWithFaults(t, BasePolicy{}, nil, fault.Plan{Script: script}, 300)
	if m.Completed != m.Jobs {
		t.Fatalf("completed %d of %d", m.Completed, m.Jobs)
	}
	if m.JobsRedispatched == 0 {
		t.Error("no jobs redispatched despite whole-machine crash")
	}
	if m.FaultEnergyNJ <= 0 {
		t.Error("no fault-attributed energy despite killed executions")
	}
	if m.Recoveries != 4 {
		t.Errorf("recoveries = %d, want 4", m.Recoveries)
	}
	// Outages: 100k, 100k, 120k, 140k → downtime 460k, MTTR 115k.
	if m.CoreDowntimeCycles != 460_000 {
		t.Errorf("downtime = %d, want 460000", m.CoreDowntimeCycles)
	}
	if m.MTTRCycles != 115_000 {
		t.Errorf("MTTR = %d, want 115000", m.MTTRCycles)
	}
	if len(m.FaultTimeline) != len(script) {
		t.Errorf("applied %d of %d scripted events", len(m.FaultTimeline), len(script))
	}
}

// TestPermanentLossFallbackChain: killing every 2KB core forces the
// energy-centric system (which otherwise stalls forever for its predicted
// core) to re-map 2KB predictions via the fallback chain.
func TestPermanentLossFallbackChain(t *testing.T) {
	script := []fault.Event{{Cycle: 1, Core: 0, Kind: fault.CrashPermanent}} // core 0 is the only 2KB core
	db := testDB(t)
	pred := OraclePredictor{DB: db}
	m := runWithFaults(t, EnergyCentricPolicy{}, pred, fault.Plan{Script: script}, 400)
	if m.Completed != m.Jobs {
		t.Fatalf("completed %d of %d", m.Completed, m.Jobs)
	}
	if m.FallbackPlacements == 0 {
		t.Error("no fallback placements despite the 2KB core being dead")
	}
	if m.CoreDowntimeCycles == 0 {
		t.Error("no downtime recorded for a permanently dead core")
	}
}

// TestResolvePredictedSizeChain exercises the ladder directly: smaller
// sizes first, then larger.
func TestResolvePredictedSizeChain(t *testing.T) {
	db := testDB(t)
	cfg := DefaultSimConfig() // {2, 4, 8, 8}
	cfg.Faults = fault.Plan{Script: []fault.Event{{Cycle: 1, Core: 1, Kind: fault.CrashPermanent}}}
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.now = 1
	if err := sim.applyFaultsDue(); err != nil {
		t.Fatal(err)
	}
	// 4KB dead: falls down to 2KB.
	if got := sim.resolvePredictedSize(4); got != 2 {
		t.Errorf("resolve(4) with 4KB dead = %d, want 2", got)
	}
	// 2KB alive: unchanged.
	if got := sim.resolvePredictedSize(2); got != 2 {
		t.Errorf("resolve(2) = %d, want 2", got)
	}
	// Kill 2KB too: 4KB predictions now fall up to 8KB.
	sim.cores[0].dead = true
	if got := sim.resolvePredictedSize(4); got != 8 {
		t.Errorf("resolve(4) with 2+4KB dead = %d, want 8", got)
	}
}

// TestStuckReconfigOverride: a core jammed from cycle 1 never reconfigures
// again — every placement runs in its current configuration.
func TestStuckReconfigOverride(t *testing.T) {
	script := []fault.Event{
		{Cycle: 1, Core: 0, Kind: fault.StuckReconfig},
		{Cycle: 1, Core: 1, Kind: fault.StuckReconfig},
		{Cycle: 1, Core: 2, Kind: fault.StuckReconfig},
		{Cycle: 1, Core: 3, Kind: fault.StuckReconfig},
	}
	db := testDB(t)
	jobs := testJobs(t, db, 200, 0.7, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = fault.Plan{Script: script}
	cfg.RecordSchedule = true
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.StuckReconfigs == 0 {
		t.Error("no stuck overrides despite all cores jammed at boot config")
	}
	// Every core boots in {size, 1 way, 16B lines}; jammed there, the base
	// policy's requested 8KB_4W_64B must never appear in the timeline.
	for _, ev := range m.Schedule {
		if ev.Config == cache.BaseConfig {
			t.Fatalf("jammed core %d still reconfigured to the base config", ev.CoreID)
		}
	}
}

// TestCounterNoisePerturbsProfiles: injected counter noise must change the
// features the profiling table stores (the ANN's inputs) while the run
// still drains every job.
func TestCounterNoisePerturbsProfiles(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 0.7, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = fault.Plan{Seed: 2, CounterNoise: 0.1}
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{}, OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != m.Jobs {
		t.Fatalf("noisy run completed %d of %d", m.Completed, m.Jobs)
	}
	if !m.FaultInjected {
		t.Fatal("noise-only plan not marked injected")
	}
	perturbed := 0
	for i := range db.Records {
		rec := &db.Records[i]
		entry := sim.Table.Ensure(rec.ID)
		if entry.Profiled && entry.Features != rec.Features {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Error("10% counter noise left every stored profile identical to ground truth")
	}
}

// TestAllCoresDeadErrors: a scripted plan that kills the whole machine
// while jobs remain must fail loudly, not hang or silently drop jobs.
func TestAllCoresDeadErrors(t *testing.T) {
	script := []fault.Event{
		{Cycle: 10, Core: 0, Kind: fault.CrashPermanent},
		{Cycle: 10, Core: 1, Kind: fault.CrashPermanent},
		{Cycle: 10, Core: 2, Kind: fault.CrashPermanent},
		{Cycle: 10, Core: 3, Kind: fault.CrashPermanent},
	}
	db := testDB(t)
	jobs := testJobs(t, db, 50, 0.7, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = fault.Plan{Script: script}
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "all cores permanently failed") {
		t.Fatalf("whole-machine loss returned %v", err)
	}
}

// TestNoProgressErrors: a plan whose transient crashes come far faster than
// any job can run must end the run with ErrNoProgress instead of killing
// and re-queueing forever.
func TestNoProgressErrors(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 20, 0.7, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = fault.Plan{Seed: 3, TransientMTTF: 1000, RecoveryCycles: 1}
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("livelocked plan returned %v", err)
	}
	if m.JobsRedispatched < maxStalledKills {
		t.Errorf("gave up after %d kills, want at least %d", m.JobsRedispatched, maxStalledKills)
	}
}

// TestProfilingSurvivesBaseCoreLoss: with both 8KB cores dead, profiling
// degrades to the largest surviving size and the run still completes.
func TestProfilingSurvivesBaseCoreLoss(t *testing.T) {
	script := []fault.Event{
		{Cycle: 1, Core: 2, Kind: fault.CrashPermanent},
		{Cycle: 1, Core: 3, Kind: fault.CrashPermanent},
	}
	db := testDB(t)
	pred := OraclePredictor{DB: db}
	m := runWithFaults(t, ProposedPolicy{}, pred, fault.Plan{Script: script}, 200)
	if m.Completed != m.Jobs {
		t.Fatalf("completed %d of %d", m.Completed, m.Jobs)
	}
	if m.ProfilingRuns == 0 {
		t.Error("no profiling happened despite surviving cores")
	}
}

// TestRunContextCancellation: an already-canceled context aborts the run
// at the first dispatch boundary.
func TestRunContextCancellation(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 100, 0.7, 3)
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx, jobs); err != context.Canceled {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestRunExperimentContextCancellation covers the four-system driver.
func TestRunExperimentContextCancellation(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunExperimentContext(ctx, db, energy.NewDefault(), OraclePredictor{DB: db},
		ExperimentConfig{Arrivals: 100, Utilization: 0.7, Seed: 1})
	if err != context.Canceled {
		t.Fatalf("canceled experiment returned %v", err)
	}
}

// TestFaultedExperimentAllSystems: a stochastic plan across the full
// four-system experiment stays self-consistent (the simulator's energy
// partition self-checks run on every system).
func TestFaultedExperimentAllSystems(t *testing.T) {
	db := testDB(t)
	cfg := ExperimentConfig{Arrivals: 300, Utilization: 0.7, Seed: 5}
	cfg.Sim.Faults = fault.Plan{Seed: 4, TransientMTTF: 2_000_000, RecoveryCycles: 80_000, StuckMTTF: 30_000_000, CounterNoise: 0.05}
	res, err := RunExperiment(db, energy.NewDefault(), OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Systems() {
		if !m.FaultInjected {
			t.Errorf("%s: not marked fault-injected", m.System)
		}
		if m.Completed != m.Jobs {
			t.Errorf("%s: completed %d of %d", m.System, m.Completed, m.Jobs)
		}
	}
	// The timeline is a pure function of (plan, core count): all four
	// systems run quad-core machines, so one system's applied events must
	// be a prefix of any longer-running system's (runs stop consuming
	// events once their work drains).
	a, b := res.Base.FaultTimeline, res.Proposed.FaultTimeline
	if len(b) < len(a) {
		a, b = b, a
	}
	if !reflect.DeepEqual(a, b[:len(a)]) {
		t.Error("base and proposed fault timelines diverge")
	}
}

// TestCoresOfSizeIndexUnderPermanentLoss pins the by-size index built in
// NewSimulator: after a run in which permanent faults killed cores of an
// interleaved machine, CoresOfSize still equals a linear scan of Cores()
// in ID order — dead cores included — and IdleCores matches a scan too.
func TestCoresOfSizeIndexUnderPermanentLoss(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 300, 0.7, 5)
	cfg := DefaultSimConfig()
	cfg.CoreSizesKB = []int{8, 2, 4, 8, 2, 4, 4}
	cfg.Faults = fault.Plan{Script: []fault.Event{
		{Cycle: 1, Core: 1, Kind: fault.CrashPermanent},
		{Cycle: 2_000_000, Core: 3, Kind: fault.CrashPermanent},
	}}
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{}, OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(jobs); err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, size := range []int{2, 4, 8, 16} {
		var want []*SimCore
		for _, c := range sim.Cores() {
			if c.SizeKB == size {
				want = append(want, c)
				if c.Dead() {
					dead++
				}
			}
		}
		if got := sim.CoresOfSize(size); !reflect.DeepEqual(got, want) {
			t.Errorf("CoresOfSize(%d) = %v, want %v", size, got, want)
		}
	}
	if dead != 2 {
		t.Errorf("%d dead cores in the index, want both killed cores", dead)
	}
	var idle []*SimCore
	for _, c := range sim.Cores() {
		if c.Idle(sim.Now()) {
			idle = append(idle, c)
		}
	}
	if got := sim.IdleCores(); !reflect.DeepEqual(got, idle) || sim.anyIdle() != (len(idle) > 0) {
		t.Errorf("IdleCores() = %v (any %v), want %v", got, sim.anyIdle(), idle)
	}
}
