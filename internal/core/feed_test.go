package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetsched/internal/energy"
	"hetsched/internal/trace"
)

// feedRun simulates jobs fed in random chunks, each with a random
// watermark no later than the first unfed arrival (half the time exactly
// that arrival), advancing a random
// number of times between feeds; then it closes the input and advances to
// the end. The run must not finish before its input closes.
func feedRun(t *testing.T, sim *Simulator, jobs []Job, rng *rand.Rand) Metrics {
	t.Helper()
	ctx := context.Background()
	advance := func() {
		t.Helper()
		for k := rng.Intn(3); k > 0; k-- {
			if done, err := sim.Advance(ctx); done || err != nil {
				t.Fatalf("advance before close: done=%v err=%v", done, err)
			}
		}
	}
	until := uint64(0)
	for k := 0; k < len(jobs); {
		end := min(k+rng.Intn(len(jobs)/4+2), len(jobs))
		limit := settledAll
		if end < len(jobs) {
			limit = jobs[end].ArrivalCycle
		}
		if rng.Intn(2) == 0 || limit == settledAll {
			until += uint64(rng.Int63n(int64(min(limit-until, 1<<62)) + 1))
		} else {
			until = limit // the tightest watermark, as a dispatcher settles
		}
		sim.Feed(slices.Clone(jobs[k:end]), until)
		advance()
		k = end
	}
	if rng.Intn(2) == 0 {
		sim.Feed(nil, settledAll)
		if done, err := sim.Advance(ctx); done || err != nil {
			t.Fatalf("advance before close: done=%v err=%v", done, err)
		}
		if until := sim.WaitsFor(); until != settledAll {
			t.Fatalf("a run with every job fed waits for watermark %d, want only Close", until)
		}
	}
	sim.Close()
	done, err := sim.Advance(ctx)
	if err != nil || !done {
		t.Fatalf("advance after close: done=%v err=%v", done, err)
	}
	return sim.Metrics()
}

// TestFedRunMatchesRunContext is the differential test of the resumable
// event loop: for every system, in plain, priority+preemptive and SLO-aware
// mode, with and without a fault plan, runs fed in random chunks under
// random watermarks yield the metrics and the trace stream of RunContext.
// Every fourth job ties its predecessor's arrival, so some chunks end
// inside a tie at their watermark.
// The built-in policies keep their stall rules, so stall-skipping passes
// run across the feed boundaries too.
func TestFedRunMatchesRunContext(t *testing.T) {
	db := testDB(t)
	modes := []struct {
		name           string
		preempt, slack bool
	}{{name: "plain"}, {name: "priority+preemptive", preempt: true}, {name: "slo", slack: true}}
	seed := int64(0) // every run feeds differently
	for _, name := range SystemNames() {
		for _, mode := range modes {
			for _, faulted := range []bool{false, true} {
				jobs := testJobs(t, db, 200, 0.9, 7)
				for p := 3; p < len(jobs); p += 4 {
					jobs[p].ArrivalCycle = jobs[p-1].ArrivalCycle // ties a chunk may split
				}
				cfg := DefaultSimConfig()
				cfg.CoreSizesKB = CoreSizesFor(name, cfg.CoreSizesKB)
				cfg.RecordSchedule = true
				if mode.preempt {
					drawPriorities(jobs, 3, 5)
					cfg.PriorityScheduling, cfg.Preemptive = true, true
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
				newSim := func() (*Simulator, *trace.Recorder) {
					pol, needsPred, err := NewPolicy(name)
					if err != nil {
						t.Fatal(err)
					}
					var pred Predictor
					if needsPred {
						pred = OraclePredictor{DB: db}
					}
					c := cfg
					c.Trace = trace.NewRecorder()
					sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, c)
					if err != nil {
						t.Fatal(err)
					}
					return sim, c.Trace
				}
				sim, tr := newSim()
				want, err := sim.RunContext(context.Background(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				wantEv := tr.Events()
				for k := 0; k < 4; k++ {
					seed++
					label := fmt.Sprintf("%s %s faults=%v seed=%d", name, mode.name, faulted, seed)
					sim, tr := newSim()
					if got := feedRun(t, sim, jobs, rand.New(rand.NewSource(seed))); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: fed metrics differ from RunContext's", label)
					}
					if got := tr.Events(); !reflect.DeepEqual(got, wantEv) {
						t.Errorf("%s: fed trace differs from RunContext's (%d events, want %d)", label, len(got), len(wantEv))
					}
				}
			}
		}
	}
}

// TestOpenInputWaits: a machine with nothing fed, queued or running waits
// on an open input, however far its watermark, even with faults pending;
// closing it ends the run at the makespan RunContext reports.
func TestOpenInputWaits(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 40, 0.5, 3)
	cfg := DefaultSimConfig()
	cfg.Faults = crashPlan
	newSim := func() *Simulator {
		sim, err := NewSimulator(db, energy.NewDefault(), mustPolicy(t, "base"), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	want, err := newSim().RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim()
	ctx := context.Background()
	if done, err := sim.Advance(ctx); done || err != nil || sim.WaitsFor() != settledAll {
		t.Fatalf("empty open run: done=%v err=%v waits for %d", done, err, sim.WaitsFor())
	}
	sim.Feed(slices.Clone(jobs), settledAll)
	if done, err := sim.Advance(ctx); done || err != nil || sim.Now() != want.Makespan {
		t.Fatalf("open run with every job fed: done=%v err=%v at cycle %d, want to wait at makespan %d",
			done, err, sim.Now(), want.Makespan)
	}
	sim.Close()
	if done, err := sim.Advance(ctx); !done || err != nil || !reflect.DeepEqual(sim.Metrics(), want) {
		t.Fatalf("closed run: done=%v err=%v, metrics equal RunContext's: %v", done, err, reflect.DeepEqual(sim.Metrics(), want))
	}
}

func mustPolicy(t *testing.T, name string) Policy {
	t.Helper()
	pol, _, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}
