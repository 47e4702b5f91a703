package core

import (
	"reflect"
	"testing"

	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/trace"
)

// rescanPolicy forwards to a built-in policy. It lacks the unexported
// stallRules opt-in, so schedulePass calls Decide on every queued job.
type rescanPolicy struct{ Policy }

// rescanAdvisor is rescanPolicy for a policy that also advises preemption.
type rescanAdvisor struct {
	rescanPolicy
	PreemptionAdvisor
}

func rescan(p Policy) Policy {
	if adv, ok := p.(PreemptionAdvisor); ok {
		return rescanAdvisor{rescanPolicy{p}, adv}
	}
	return rescanPolicy{p}
}

// crashPlan is a stochastic fault plan with every fault kind, permanent
// crashes included.
var crashPlan = fault.Plan{Seed: 4, TransientMTTF: 2_000_000, RecoveryCycles: 80_000,
	PermanentMTTF: 20_000_000, StuckMTTF: 30_000_000, CounterNoise: 0.05}

// TestStallSkipMatchesRescan is the differential test of schedulePass's
// stall rules: for every system, run mode and fault plan, the skipping
// pass yields the metrics (stall counters and placement schedule
// included) and the trace stream of the pass that asks the policy about
// every queued job at every event.
func TestStallSkipMatchesRescan(t *testing.T) {
	db := testDB(t)
	modes := []struct {
		name                 string
		prio, preempt, slack bool
	}{
		{name: "plain"},
		{name: "priority", prio: true},
		{name: "priority+preemptive", prio: true, preempt: true},
		{name: "slo", slack: true},
	}
	run := func(pol Policy, pred Predictor, jobs []Job, cfg SimConfig) (Metrics, []trace.Event) {
		t.Helper()
		tr := trace.NewRecorder()
		cfg.Trace = tr
		sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m, tr.Events()
	}
	// -short (the race-detector run) keeps the whole grid on a shorter
	// stream: long enough that opting proposed into Rule B still fails,
	// too short for the proposed system to learn enough to migrate.
	arrivals := 400
	if testing.Short() {
		arrivals = 250
	}
	var migrations int
	for _, name := range SystemNames() {
		for _, mode := range modes {
			for _, faulted := range []bool{false, true} {
				pol, needsPred, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				var pred Predictor
				if needsPred {
					pred = OraclePredictor{DB: db}
				}
				jobs := testJobs(t, db, arrivals, 0.7, 3)
				cfg := DefaultSimConfig()
				cfg.CoreSizesKB = CoreSizesFor(name, cfg.CoreSizesKB)
				cfg.RecordSchedule = true
				if mode.prio {
					drawPriorities(jobs, 3, 11)
					cfg.PriorityScheduling = true
					cfg.Preemptive = mode.preempt
				}
				if mode.slack {
					for i := range jobs {
						rec, err := db.Record(jobs[i].AppID)
						if err != nil {
							t.Fatal(err)
						}
						jobs[i].SetDeadline(jobs[i].ArrivalCycle + uint64(1.2*float64(rec.BestConfig().Cycles)))
					}
					cfg.SLOAware = true
				}
				if faulted {
					cfg.Faults = crashPlan
				}
				got, gotEv := run(pol, pred, jobs, cfg)
				want, wantEv := run(rescan(pol), pred, jobs, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s faults=%v: metrics differ from the full rescan (stalls %d/%d, want %d/%d)",
						name, mode.name, faulted, got.StallDecisions, got.ResourceStalls,
						want.StallDecisions, want.ResourceStalls)
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Errorf("%s %s faults=%v: trace differs from the full rescan (%d events, want %d)",
						name, mode.name, faulted, len(gotEv), len(wantEv))
				}
				migrations += got.SLOMigrations
			}
		}
	}
	if !testing.Short() && migrations == 0 {
		t.Error("no SLO migration in the grid: the deadline-dependent path went unchecked")
	}
}

// TestIncrementalSortMatchesResort is the differential test of the
// incremental priority sort: for every system, in priority and
// priority+preemptive mode, with and without a fault plan, a run that
// inserts only the jobs appended since the last pass yields the metrics
// and the trace stream of a run that sorts the whole queue every pass.
func TestIncrementalSortMatchesResort(t *testing.T) {
	db := testDB(t)
	run := func(name string, preempt, faulted, resortAll bool) (Metrics, []trace.Event) {
		t.Helper()
		pol, needsPred, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		var pred Predictor
		if needsPred {
			pred = OraclePredictor{DB: db}
		}
		jobs := testJobs(t, db, 300, 0.9, 5)
		drawPriorities(jobs, 4, 13)
		cfg := DefaultSimConfig()
		cfg.CoreSizesKB = CoreSizesFor(name, cfg.CoreSizesKB)
		cfg.RecordSchedule = true
		cfg.PriorityScheduling = true
		cfg.Preemptive = preempt
		if faulted {
			cfg.Faults = crashPlan
		}
		tr := trace.NewRecorder()
		cfg.Trace = tr
		sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.resortAll = resortAll
		m, err := sim.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m, tr.Events()
	}
	var preemptions, redispatched int
	for _, name := range SystemNames() {
		for _, preempt := range []bool{false, true} {
			for _, faulted := range []bool{false, true} {
				got, gotEv := run(name, preempt, faulted, false)
				want, wantEv := run(name, preempt, faulted, true)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s preemptive=%v faults=%v: metrics differ from the full re-sort", name, preempt, faulted)
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Errorf("%s preemptive=%v faults=%v: trace differs from the full re-sort (%d events, want %d)",
						name, preempt, faulted, len(gotEv), len(wantEv))
				}
				preemptions += got.Preemptions
				redispatched += got.JobsRedispatched
			}
		}
	}
	if preemptions == 0 || redispatched == 0 {
		t.Errorf("%d preemptions and %d re-dispatches in the grid: an out-of-order append went unchecked", preemptions, redispatched)
	}
}
