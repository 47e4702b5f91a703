package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"hetsched"
	"hetsched/internal/core"
	"hetsched/internal/server"
)

// The serve workload: the daemon's main path. Every op is a POST
// /v1/schedule of one bursty, SLO-classed scenario.
const (
	serveScenario = "bursty:rate=0.9,jobs=300;slo=deadline:slack=2,classes=hi@0.2"
	serveJobs     = 300
	// serveRate is the open-loop rate: about a quarter of what the seed
	// commit completes in the closed loop on 2 cores (measured, then fixed
	// here), so the loop keeps up when a neighbour on the host takes a
	// core. At half the capacity it fell behind then, and op_p50_ms grew
	// twentyfold.
	serveRate = 15.0
)

func runServe(ctx context.Context, b *bench) error {
	spec, err := hetsched.ParseScenarioSpec(serveScenario)
	if err != nil {
		return err
	}
	var (
		mu  sync.Mutex
		got = map[int]server.ScheduleResponse{} // traced ops' responses
	)
	return runHTTP(ctx, b, &httpWorkload{
		predictor: "ensemble:table,markov,ann",
		meter:     "predict",
		path:      "/v1/schedule",
		series:    "schedule",
		rate:      serveRate,
		body: func(op int) ([]byte, error) {
			return json.Marshal(server.ScheduleRequest{System: "proposed", Scenario: serveScenario, Seed: b.opSeed(op)})
		},
		check: func(op int, traced bool, data []byte) (int, []byte, error) {
			var r server.ScheduleResponse
			if err := json.Unmarshal(data, &r); err != nil {
				return 0, nil, fmt.Errorf("decode response: %w", err)
			}
			if r.Jobs != serveJobs || r.Completed != r.Jobs {
				return 0, nil, fmt.Errorf("completed %d of %d jobs, want all of %d", r.Completed, r.Jobs, serveJobs)
			}
			if r.Scenario == "" || r.DeadlinesTotal == 0 || r.Predictor == nil {
				return 0, nil, fmt.Errorf("response lacks the scenario, SLO or predictor block")
			}
			if traced {
				mu.Lock()
				got[op] = r
				mu.Unlock()
			}
			return r.Completed, data, nil
		},
		replay: func(ctx context.Context, sys *hetsched.System, op int, traced bool) error {
			if !traced {
				return nil
			}
			tr := b.tr
			root := tr.begin("server.lib", -1, op)
			defer tr.end(root)
			// The handler's defaults (500 arrivals, utilization 0.9) are
			// overridden by the scenario's jobs= and rate=.
			wsp := tr.begin("core.workload", root, op)
			jobs, err := sys.ScenarioWorkload(spec, 500, 0.9, b.opSeed(op))
			tr.end(wsp)
			if err != nil {
				return err
			}
			var sim hetsched.SimConfig
			spec.ApplySim(&sim)
			m, err := b.simulate(tr, "core.sim.proposed", root, op, len(jobs), func(span int) (core.Metrics, error) {
				b.meter.attribute(span, op)
				return sys.RunSystemContext(ctx, "proposed", jobs, sim)
			})
			if err != nil {
				return err
			}
			mu.Lock()
			r := got[op]
			mu.Unlock()
			return checkRerun(m, r.Completed, r.MakespanCycles, r.TotalEnergyNJ)
		},
	})
}
