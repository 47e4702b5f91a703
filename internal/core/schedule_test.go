package core

import (
	"testing"

	"hetsched/internal/energy"
)

func TestScheduleRecorderOffByDefault(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 100, 0.6, 27)
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil,
		SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Schedule) != 0 {
		t.Errorf("schedule recorded without RecordSchedule: %d events", len(m.Schedule))
	}
}

func TestScheduleRecorderCapturesEveryExecution(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 300, 0.8, 27)
	cfg := DefaultSimConfig()
	cfg.RecordSchedule = true
	sim, err := NewSimulator(db, energy.NewDefault(), ProposedPolicy{},
		OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Schedule) != m.Completed {
		t.Fatalf("%d events for %d completions", len(m.Schedule), m.Completed)
	}
	// Per-core intervals must be disjoint and ordered.
	lastEnd := map[int]uint64{}
	perCore := map[int][]PlacementEvent{}
	for _, e := range m.Schedule {
		if e.End <= e.Start {
			t.Fatalf("empty interval %+v", e)
		}
		if e.CoreID < 0 || e.CoreID >= 4 {
			t.Fatalf("bad core in %+v", e)
		}
		perCore[e.CoreID] = append(perCore[e.CoreID], e)
	}
	for core, events := range perCore {
		for _, e := range events {
			if e.Start < lastEnd[core] {
				t.Fatalf("core %d: overlapping intervals (%d < %d)", core, e.Start, lastEnd[core])
			}
			lastEnd[core] = e.End
		}
	}
	// Profiling runs must appear flagged.
	profiled := 0
	for _, e := range m.Schedule {
		if e.Profiling {
			profiled++
		}
	}
	if profiled != m.ProfilingRuns {
		t.Errorf("%d profiling events for %d profiling runs", profiled, m.ProfilingRuns)
	}
}

func TestScheduleRecordsPreemptions(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 400, 1.3, 28)
	drawPriorities(jobs, 3, 5)
	cfg := SimConfig{
		CoreSizesKB:        BaseCoreSizes(4),
		PriorityScheduling: true,
		Preemptive:         true,
		RecordSchedule:     true,
	}
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	preempted := 0
	for _, e := range m.Schedule {
		if e.Preempted {
			preempted++
		}
	}
	if preempted != m.Preemptions {
		t.Errorf("%d preempted events for %d preemptions", preempted, m.Preemptions)
	}
	if len(m.Schedule) != m.Completed+m.Preemptions {
		t.Errorf("%d events, want completions %d + preemptions %d",
			len(m.Schedule), m.Completed, m.Preemptions)
	}
}
