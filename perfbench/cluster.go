package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"time"

	"hetsched"
	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// The cluster workload: one op is ClusterWorkload plus RunClusterContext.
const (
	// clusterTopology is wide enough that the router, which scores every
	// candidate node for every job, is a visible share of the op, while the
	// per-node simulation cost does not grow with width.
	clusterTopology = "32*quad;16*4x8;16*16x2"
	clusterArrivals = 5000
	clusterSystem   = "proposed"
)

func clusterConfig(nodes []hetsched.SystemSpec) hetsched.ClusterConfig {
	return hetsched.ClusterConfig{
		Nodes:   nodes,
		System:  clusterSystem,
		Scorer:  hetsched.ScoreHybrid,
		Workers: poolWorkers,
	}
}

// clusterTotals accumulates the traced ops' decomposition.
type clusterTotals struct {
	run, nodes, nodeMax time.Duration
	runMallocs          uint64
	nodeMallocs         uint64
	steals              int
}

func runCluster(ctx context.Context, b *bench) error {
	nodes, err := hetsched.ParseClusterSpec(clusterTopology)
	if err != nil {
		return err
	}
	b.dig = newDigest(3) // the warm-up op and the first two measured ops
	b.meter = newPredMeter(b.tr, "ann")
	// op runs one cluster dispatch; rec, when set, records the routing.
	op := func(sys *hetsched.System, tr *tracer, i int, rec *hetsched.TraceRecorder) ([]hetsched.Job, *hetsched.ClusterResult, error) {
		root := tr.begin("op", -1, i)
		defer tr.end(root)
		wsp := tr.begin("core.workload", root, i)
		jobs, err := sys.ClusterWorkload(nodes, nil, clusterArrivals, 0.9, b.opSeed(i))
		tr.end(wsp)
		if err != nil {
			return nil, nil, fmt.Errorf("workload: %w", err)
		}
		cfg := clusterConfig(nodes)
		cfg.Trace = rec
		sp := tr.begin("cluster.run", root, i)
		b.meter.attribute(sp, i)
		res, err := sys.RunClusterContext(ctx, cfg, jobs)
		tr.end(sp)
		return jobs, res, err
	}
	record := func(i int, res *hetsched.ClusterResult) bool {
		if err := checkCluster(res); err != nil {
			b.opFailed(i, "%v", err)
			return false
		}
		out, err := json.Marshal(res)
		if err == nil {
			err = b.dig.add(i, out)
		}
		if err != nil {
			b.opFailed(i, "%v", err)
			return false
		}
		return true
	}

	// Set-up: build the trained System and run the warm-up op (op 0).
	var raw *hetsched.System
	for round := 0; round < b.rounds(); round++ {
		coldStart()
		b.attempt()
		t0 := time.Now()
		if raw, err = buildSystem("ann"); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		_, res, err := op(raw, nil, 0, nil)
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if err != nil {
			b.opFailed(0, "%v", err)
			return fmt.Errorf("set-up: %w", err)
		}
		record(0, res)
	}
	metered := raw
	if b.tr != nil {
		mp, err := b.meter.wrap(raw.Pred)
		if err != nil {
			return err
		}
		metered = withPredictor(raw, mp)
	}

	var ct clusterTotals
	alloc0 := memStats().TotalAlloc
	deadline := time.Now().Add(b.duration())
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		tr := b.opTracer(i)
		sys, rec := raw, (*hetsched.TraceRecorder)(nil)
		if tr != nil {
			sys, rec = metered, hetsched.NewTraceRecorder()
		}
		tr.setMetering(true)
		b.attempt()
		t0 := time.Now()
		jobs, res, err := op(sys, tr, i, rec)
		elapsed := time.Since(t0)
		tr.setMetering(false)
		if err != nil {
			b.opFailed(i, "%v", err)
			continue
		}
		b.measuredOps++
		b.recordOp(elapsed, tr != nil)
		b.simJobs += float64(len(jobs))
		b.simSeconds += elapsed.Seconds()
		if !record(i, res) {
			continue
		}
		if tr != nil {
			if err := b.decomposeCluster(ctx, raw, nodes, i, jobs, res, rec.Events(), &ct); err != nil {
				b.opFailed(i, "%v", err)
			}
		}
	}
	b.allocBytes = memStats().TotalAlloc - alloc0
	b.recordMeter()
	b.measureHeap()
	b.note("cluster: %s, %d nodes, scorer hybrid, stealing on, node-sim workers %d", clusterTopology, len(nodes), poolWorkers)
	if n := b.tracedOps; n > 0 {
		route := ct.run - ct.nodes
		b.layer["cluster.run_ms"] = ms(ct.run) / float64(n)
		b.layer["cluster.node_sim_ms"] = ms(ct.nodes) / float64(n)
		b.layer["cluster.node_sim_max_ms"] = ms(ct.nodeMax) / float64(n)
		b.layer["cluster.route_ms"] = ms(route) / float64(n)
		b.layer["cluster.route_share"] = float64(route) / float64(ct.run)
		b.layer["cluster.route_allocs_per_job"] = (float64(ct.runMallocs) - float64(ct.nodeMallocs)) / float64(n*clusterArrivals)
		b.layer["cluster.steals"] = float64(ct.steals) / float64(n)
	}
	return nil
}

// checkCluster verifies that every job was routed once and completed.
func checkCluster(res *hetsched.ClusterResult) error {
	if res.Jobs != clusterArrivals || res.Completed != res.Jobs {
		return fmt.Errorf("completed %d of %d jobs, want all of %d", res.Completed, res.Jobs, clusterArrivals)
	}
	routed := 0
	for _, nr := range res.Nodes {
		routed += nr.JobsRouted
		if nr.Metrics.Completed != nr.JobsRouted {
			return fmt.Errorf("node %d completed %d of %d routed jobs", nr.Node, nr.Metrics.Completed, nr.JobsRouted)
		}
	}
	if routed != res.Jobs {
		return fmt.Errorf("%d jobs routed, want %d", routed, res.Jobs)
	}
	return nil
}

// decomposeCluster splits a traced op into routing and node simulation.
// It rebuilds each node's share from the route and steal events, re-runs
// every share through the bare simulator (which must reproduce that node's
// metrics), and runs the op again on one worker: there the run is the
// route pass plus the node simulations back to back, so route time is the
// run minus the re-timed node simulations.
func (b *bench) decomposeCluster(ctx context.Context, sys *hetsched.System, nodes []hetsched.SystemSpec,
	op int, jobs []hetsched.Job, res *hetsched.ClusterResult, events []hetsched.TraceEvent, ct *clusterTotals) error {
	owner := make([]int, len(jobs))
	for i := range owner {
		owner[i] = -1
	}
	for _, ev := range events {
		if ev.Kind == trace.KindRoute || ev.Kind == trace.KindSteal { // a steal overrides the route
			if ev.Job < 0 || ev.Job >= len(jobs) || ev.Core < 0 || ev.Core >= len(nodes) {
				return fmt.Errorf("trace event %+v out of range", ev)
			}
			owner[ev.Job] = ev.Core
		}
	}
	shares := make([][]hetsched.Job, len(nodes))
	for _, j := range jobs {
		if owner[j.Index] < 0 {
			return fmt.Errorf("job %d has no route event", j.Index)
		}
		shares[owner[j.Index]] = append(shares[owner[j.Index]], j)
	}

	tr := b.tr
	var opMax time.Duration
	root := tr.begin("cluster.replay", -1, op)
	for n, share := range shares {
		if len(share) != res.Nodes[n].JobsRouted {
			tr.end(root)
			return fmt.Errorf("node %d: trace gives %d jobs, result %d", n, len(share), res.Nodes[n].JobsRouted)
		}
		if len(share) == 0 {
			continue
		}
		sort.SliceStable(share, func(a, c int) bool {
			if share[a].ArrivalCycle != share[c].ArrivalCycle {
				return share[a].ArrivalCycle < share[c].ArrivalCycle
			}
			return share[a].Index < share[c].Index
		})
		pol, needsPred, err := core.NewPolicy(clusterSystem)
		if err != nil {
			tr.end(root)
			return err
		}
		var pred core.Predictor
		if needsPred {
			pred = sys.Pred
		}
		sc := nodes[n].SimConfig()
		sc.CoreSizesKB = core.CoreSizesFor(clusterSystem, sc.CoreSizesKB)
		m0 := b.sims.mallocs
		e0 := b.sims.elapsed
		m, err := b.simulate(tr, "cluster.node_sim", root, op, len(share), func(int) (core.Metrics, error) {
			s, err := core.NewSimulator(sys.Eval, sys.Energy, pol, pred, sc)
			if err != nil {
				return core.Metrics{}, err
			}
			return s.RunContext(ctx, share)
		})
		if err != nil {
			tr.end(root)
			return fmt.Errorf("node %d: %w", n, err)
		}
		if !reflect.DeepEqual(m, res.Nodes[n].Metrics) {
			tr.end(root)
			return fmt.Errorf("node %d: its share re-run alone differs from the cluster's node result", n)
		}
		d := b.sims.elapsed - e0
		ct.nodes += d
		ct.nodeMallocs += b.sims.mallocs - m0
		opMax = max(opMax, d)
	}
	tr.end(root)
	ct.nodeMax += opMax

	cfg := clusterConfig(nodes)
	cfg.Workers = 1
	m0 := memStats().Mallocs
	sp := tr.begin("cluster.run_1worker", -1, op)
	t0 := time.Now()
	res1, err := sys.RunClusterContext(ctx, cfg, jobs)
	ct.run += time.Since(t0)
	tr.end(sp)
	ct.runMallocs += memStats().Mallocs - m0
	if err != nil {
		return fmt.Errorf("1-worker run: %w", err)
	}
	if !reflect.DeepEqual(res1, res) {
		return fmt.Errorf("1-worker run differs from the %d-worker run", poolWorkers)
	}
	ct.steals += res.Steals
	return nil
}
