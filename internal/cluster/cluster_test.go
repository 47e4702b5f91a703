package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/trace"
)

func testDB(t testing.TB) *characterize.DB {
	t.Helper()
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testJobs(t testing.TB, db *characterize.DB, n, cores int, util float64, seed int64) []core.Job {
	t.Helper()
	ids := core.AllAppIDs(db)
	horizon, err := core.HorizonForUtilization(db, ids, n, cores, util)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := core.GenerateWorkload(core.WorkloadConfig{
		Arrivals: n, AppIDs: ids, HorizonCycles: horizon, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func mustNodes(t testing.TB, spec string) []core.SystemSpec {
	t.Helper()
	nodes, err := ParseClusterSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func newTestCluster(t testing.TB, db *characterize.DB, cfg Config) *Cluster {
	t.Helper()
	c, err := New(db, energy.NewDefault(), core.OraclePredictor{DB: db}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseClusterSpec(t *testing.T) {
	nodes := mustNodes(t, "16*quad")
	if len(nodes) != 16 || nodes[0].String() != "2,4,2x8" {
		t.Fatalf("16*quad: %d nodes, first %q", len(nodes), nodes[0])
	}
	nodes = mustNodes(t, "8*4x8;8*16x2")
	if len(nodes) != 16 || nodes[0].Cores() != 4 || nodes[15].Cores() != 16 {
		t.Fatalf("mixed spec parsed wrong: %v", nodes)
	}
	for _, bad := range []string{"", ";", "0*quad", "-1*quad", "quad;;quad", "500*quad", "2*bogus"} {
		if _, err := ParseClusterSpec(bad); err == nil {
			t.Errorf("ParseClusterSpec(%q) accepted", bad)
		}
	}
}

func TestFormatClusterSpecRoundTrip(t *testing.T) {
	for _, in := range []string{"16*quad", "8*4x8;8*16x2", "quad;16x2;quad"} {
		nodes := mustNodes(t, in)
		back := mustNodes(t, FormatClusterSpec(nodes))
		if !reflect.DeepEqual(nodes, back) {
			t.Errorf("%q: round trip %v != %v", in, back, nodes)
		}
	}
}

func TestScorerKindFlagValue(t *testing.T) {
	var k ScorerKind
	for _, name := range scorerNames {
		if err := k.Set(name); err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Errorf("Set(%q) → %q", name, k)
		}
	}
	if err := k.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
	if _, err := ScorerKind(99).MarshalText(); err == nil {
		t.Error("MarshalText(99) accepted")
	}
}

func TestNewValidation(t *testing.T) {
	db := testDB(t)
	em := energy.NewDefault()
	quad := []core.SystemSpec{core.DefaultSystemSpec()}
	if _, err := New(nil, em, nil, Config{Nodes: quad}); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := New(db, nil, nil, Config{Nodes: quad}); err == nil {
		t.Error("nil energy model accepted")
	}
	if _, err := New(db, em, nil, Config{}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := New(db, em, nil, Config{Nodes: quad}); err == nil {
		t.Error("proposed without predictor accepted")
	}
	if _, err := New(db, em, nil, Config{Nodes: quad, System: "bogus"}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := New(db, em, nil, Config{Nodes: quad, System: "base", Scorer: ScorerKind(9)}); err == nil {
		t.Error("unknown scorer accepted")
	}
	if _, err := New(db, em, nil, Config{Nodes: quad, System: "base", StealThreshold: -1}); err == nil {
		t.Error("negative steal threshold accepted")
	}
	for _, sim := range []core.SimConfig{
		{CoreSizesKB: []int{8}}, {CoreFreqs: []float64{1}}, {ReconfigCycles: 1}, {ProfilingCycles: 1},
		{Trace: trace.NewRecorder()}, {Faults: fault.Plan{CounterNoise: 2}},
	} {
		if _, err := New(db, em, nil, Config{Nodes: quad, System: "base", Sim: sim}); err == nil {
			t.Errorf("node template %+v accepted", sim)
		}
	}
	if _, err := New(db, em, nil, Config{Nodes: quad, System: "base"}); err != nil {
		t.Errorf("predictor-free base cluster rejected: %v", err)
	}
}

// TestSingleNodeEquivalence pins the two-level scheduler's degenerate
// case: a one-node cluster is the bare simulator, metric for metric and
// trace event for trace event — no dispatch, no stealing, the fault plan's
// seed verbatim — on every system, scheduling mode and fault plan, and it
// fails with the simulator's own error when every core dies.
func TestSingleNodeEquivalence(t *testing.T) {
	db := testDB(t)
	em := energy.NewDefault()
	plain := testJobs(t, db, 200, 4, 0.8, 11)
	// Priorities in [0, 4) and deadlines at 3x each job's best case.
	prioritized := append([]core.Job(nil), plain...)
	deadlined := append([]core.Job(nil), plain...)
	r := rand.New(rand.NewSource(12))
	for i := range plain {
		prioritized[i].Priority = r.Intn(4)
		rec, err := db.Record(plain[i].AppID)
		if err != nil {
			t.Fatal(err)
		}
		deadlined[i].SetDeadline(plain[i].ArrivalCycle + 3*rec.BestConfig().Cycles)
	}
	tied := append([]core.Job(nil), plain...)
	for i := range tied {
		tied[i].ArrivalCycle = tied[i/3*3].ArrivalCycle // runs of three equal arrivals
	}
	var allDead []fault.Event
	for c := 0; c < 4; c++ {
		allDead = append(allDead, fault.Event{Cycle: 1, Core: c, Kind: fault.CrashPermanent})
	}
	crashes := fault.Plan{Seed: 9, TransientMTTF: 5_000_000, RecoveryCycles: 20_000, PermanentMTTF: 20_000_000}

	type row struct {
		name, system string
		jobs         []core.Job
		sim          core.SimConfig
		fails        bool
	}
	var rows []row
	for _, system := range core.SystemNames() {
		for _, mode := range []row{
			{name: "plain", jobs: plain},
			{name: "priority", jobs: prioritized, sim: core.SimConfig{PriorityScheduling: true, Preemptive: true}},
			{name: "slo", jobs: deadlined, sim: core.SimConfig{SLOAware: true}},
		} {
			for _, plan := range []fault.Plan{{}, crashes} {
				mode.sim.Faults = plan
				rows = append(rows, row{fmt.Sprintf("%s/%s/faults=%t", system, mode.name, plan.Enabled()), system, mode.jobs, mode.sim, false})
			}
		}
	}
	rows = append(rows,
		row{"proposed/equal-arrivals", "proposed", tied, core.SimConfig{}, false},
		row{"proposed/all-cores-dead", "proposed", plain, core.SimConfig{Faults: fault.Plan{Script: allDead}}, true})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			c := newTestCluster(t, db, Config{Nodes: []core.SystemSpec{core.DefaultSystemSpec()}, System: r.system, Sim: r.sim, Trace: rec})
			res, err := c.Run(r.jobs)

			pol, needsPred, perr := core.NewPolicy(r.system)
			if perr != nil {
				t.Fatal(perr)
			}
			var pred core.Predictor
			if needsPred {
				pred = core.OraclePredictor{DB: db}
			}
			wantRec := trace.NewRecorder()
			node := core.DefaultSimConfig()
			sim := r.sim
			sim.CoreSizesKB = core.CoreSizesFor(r.system, node.CoreSizesKB)
			sim.ReconfigCycles, sim.ProfilingCycles = node.ReconfigCycles, node.ProfilingCycles
			sim.Trace = wantRec
			s, serr := core.NewSimulator(db, em, pol, pred, sim)
			if serr != nil {
				t.Fatal(serr)
			}
			want, werr := s.Run(r.jobs)
			if r.fails || werr != nil || err != nil {
				if werr == nil || err == nil || err.Error() != "cluster: node 0: "+werr.Error() {
					t.Fatalf("cluster error %v, simulator error %v", err, werr)
				}
				return
			}

			if !reflect.DeepEqual(res.Nodes[0].Metrics, want) {
				t.Errorf("metrics differ from the bare simulator:\n got %+v\nwant %+v", res.Nodes[0].Metrics, want)
			}
			if got, want := rec.Events(), wantRec.Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("trace differs from the bare simulator (%d vs %d events)", len(got), len(want))
			}
			if nr := res.Nodes[0]; res.Steals != 0 || nr.MaxPending != 0 || nr.JobsRouted != len(r.jobs) {
				t.Errorf("dispatch ran: %d steals, max pending %d, %d/%d jobs routed",
					res.Steals, nr.MaxPending, nr.JobsRouted, len(r.jobs))
			}
			if res.Completed != want.Completed || res.TotalEnergyNJ() != want.TotalEnergy() {
				t.Errorf("aggregates diverge: %d/%f vs %d/%f",
					res.Completed, res.TotalEnergyNJ(), want.Completed, want.TotalEnergy())
			}
		})
	}
}

// runMixed runs the acceptance-criteria shape — a 16-node cluster of mixed
// node shapes — at a given worker count, with faults and tracing on.
func runMixed(t testing.TB, db *characterize.DB, jobs []core.Job, workers int) (*Result, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder()
	c := newTestCluster(t, db, Config{
		Nodes:   mustNodes(t, "8*quad;4*4x8;4*2,2,4,8"),
		Workers: workers,
		Sim:     core.SimConfig{Faults: fault.Plan{Seed: 3, TransientMTTF: 20_000_000, PermanentMTTF: 80_000_000}},
		Trace:   rec,
	})
	res, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Events()
}

// TestClusterDeterministicAcrossWorkers is the determinism contract: a
// fixed seed produces bit-identical per-node metrics, energy totals,
// placements and traces (route/steal plus every node's own events) at any
// worker count.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 600, 72, 0.8, 5)
	res1, ev1 := runMixed(t, db, jobs, 1)
	res8, ev8 := runMixed(t, db, jobs, 8)
	if !reflect.DeepEqual(res1, res8) {
		t.Errorf("results differ across worker counts:\n w1 %+v\n w8 %+v", res1, res8)
	}
	if !reflect.DeepEqual(ev1, ev8) {
		t.Errorf("trace events differ across worker counts (%d vs %d events)", len(ev1), len(ev8))
	}
	if res1.Completed != len(jobs) {
		t.Errorf("completed %d/%d", res1.Completed, len(jobs))
	}
	routes := 0
	for _, e := range ev1 {
		if e.Kind == trace.KindRoute {
			routes++
		}
	}
	if routes != len(jobs) {
		t.Errorf("%d route events for %d jobs", routes, len(jobs))
	}
}

// routedShares routes jobs on c alone and returns each node's settled
// share, or the route error.
func routedShares(t *testing.T, c *Cluster, jobs []core.Job) ([][]core.Job, error) {
	t.Helper()
	d := c.newDispatch(jobs)
	shares := settledShares(t, "route", d)
	if err := d.route(context.Background()); err != nil {
		return nil, err
	}
	return shares, nil
}

// TestNodesMatchBareRuns: with node simulations streaming beside the route
// pass, every node's Metrics equal a bare simulator run of its share at
// 1, 2, 3 and 8 workers, under priorities with preemption, SLO-aware
// stalls and a fault plan with permanent crashes; and the run whose jobs
// include apps outside the DB fails with the lowest-indexed failing node's
// error at every worker count.
func TestNodesMatchBareRuns(t *testing.T) {
	db := testDB(t)
	nodes := mustNodes(t, "6*quad;3*4x8;3*2,2,4,8")
	jobs := testJobs(t, db, 1200, 60, 0.9, 13)
	r := rand.New(rand.NewSource(13))
	for i := range jobs {
		jobs[i].Priority = r.Intn(3)
		rec, err := db.Record(jobs[i].AppID)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].SetDeadline(jobs[i].ArrivalCycle + 2*rec.BestConfig().Cycles)
	}
	broken := append([]core.Job(nil), jobs...)
	for _, p := range []int{700, 150, 1000} {
		broken[p].AppID = len(db.Records) + p
	}
	sim := core.SimConfig{PriorityScheduling: true, Preemptive: true, SLOAware: true,
		Faults: fault.Plan{Seed: 5, TransientMTTF: 20_000_000, RecoveryCycles: 40_000, PermanentMTTF: 60_000_000}}
	for _, w := range []struct {
		name string
		jobs []core.Job
	}{{"valid", jobs}, {"unknown-apps", broken}} {
		c := newTestCluster(t, db, Config{Nodes: nodes, Sim: sim})
		shares, err := routedShares(t, c, w.jobs)
		for _, workers := range []int{1, 2, 3, 8} {
			c.cfg.Workers = workers
			matchBareNodes(t, w.name, c, w.jobs, shares, err)
		}
	}
}

// TestNodesFailBeforeRouteEnds: when every node fails early in a long
// route pass, so that no node is ready when routing closes the input, the
// run still ends, with the lowest-indexed node's error: closing the input
// wakes the idle worker.
func TestNodesFailBeforeRouteEnds(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 60000, 8, 0.9, 3)
	for i := range jobs {
		jobs[i].AppID = len(db.Records) // outside the DB: the first arrival fails its node
	}
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "2*quad"), Workers: 2})
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "cluster: node 0: ") {
			t.Fatalf("run error %v, want node 0's", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not end: a worker waits on a closed input")
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, from whichever goroutine makes it.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelMidRouteLeavesNoWorker: a run cancelled while the route pass
// and the node workers are busy returns context.Canceled, and every
// worker has exited by the time RunContext returns.
func TestCancelMidRouteLeavesNoWorker(t *testing.T) {
	db := testDB(t)
	nodes := mustNodes(t, "8*quad;4*4x8;4*16x2")
	jobs := testJobs(t, db, 3000, 96, 0.9, 21)
	c := newTestCluster(t, db, Config{Nodes: nodes, Workers: 8})
	before := runtime.NumGoroutine()
	for _, n := range []int64{1, 2, 40, 400} {
		if _, err := c.RunContext(&cancelAfter{Context: context.Background(), n: n}, jobs); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d context checks: %v, want context.Canceled", n, err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("cancelled after %d context checks: %d goroutines, %d before the run", n, after, before)
		}
	}
}

// TestTieBreakAndStealing pins the tie rule and the stealing protocol: two
// identical nodes under the pure energy scorer tie on every job, so every
// arrival routes to node 0 — and node 1 gets work only by stealing.
func TestTieBreakAndStealing(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 200, 8, 1.5, 9)
	rec := trace.NewRecorder()
	c := newTestCluster(t, db, Config{
		Nodes:  mustNodes(t, "2*quad"),
		Scorer: ScoreEnergy,
		Trace:  rec,
	})
	res, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	steals := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindRoute:
			if e.Core != 0 {
				t.Fatalf("tied score routed job %d to node %d", e.Job, e.Core)
			}
		case trace.KindSteal:
			if e.Core != 1 || e.Start != 0 {
				t.Fatalf("steal went %d -> %d, want 0 -> 1", e.Start, e.Core)
			}
			steals++
		}
	}
	if steals == 0 || res.Steals != steals {
		t.Fatalf("steals: result %d, trace %d (want > 0 and equal)", res.Steals, steals)
	}
	if res.Nodes[1].StolenIn != steals || res.Nodes[0].StolenOut != steals {
		t.Errorf("steal counters: in=%d out=%d want %d",
			res.Nodes[1].StolenIn, res.Nodes[0].StolenOut, steals)
	}
	if res.Nodes[1].JobsRouted == 0 {
		t.Error("node 1 never worked despite stealing")
	}
	if res.Completed != len(jobs) {
		t.Errorf("completed %d/%d", res.Completed, len(jobs))
	}

	// The stealing ablation really turns it off.
	c2 := newTestCluster(t, db, Config{
		Nodes: mustNodes(t, "2*quad"), Scorer: ScoreEnergy, DisableStealing: true,
	})
	res2, err := c2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Steals != 0 || res2.Nodes[1].JobsRouted != 0 {
		t.Errorf("stealing disabled but node1 got %d jobs, %d steals",
			res2.Nodes[1].JobsRouted, res2.Steals)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 200, 16, 0.8, 2)
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "4*quad"), Scorer: ScoreRoundRobin})
	res, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, nr := range res.Nodes {
		if nr.JobsRouted == 0 {
			t.Errorf("round-robin starved node %d", nr.Node)
		}
	}
}

// TestBaseSizeFreeNodes is the regression test for shapes without a
// base-size (8KB) core: profiling and prediction must degrade onto the
// sizes the node actually has instead of deadlocking the per-node policy.
func TestBaseSizeFreeNodes(t *testing.T) {
	db := testDB(t)
	for _, spec := range []string{"16x2", "4x4", "8x2;2x4"} {
		jobs := testJobs(t, db, 120, 16, 0.8, 9)
		c := newTestCluster(t, db, Config{Nodes: mustNodes(t, spec)})
		res, err := c.Run(jobs)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Completed != len(jobs) {
			t.Errorf("%s: completed %d/%d", spec, res.Completed, len(jobs))
		}
	}
}

func TestBalanceScorerCompletes(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 150, 8, 1.0, 4)
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "quad;4x8"), Scorer: ScoreBalance})
	res, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Errorf("completed %d/%d", res.Completed, len(jobs))
	}
}

// TestUnschedulableCluster pins the dispatcher's failure mode: a scripted
// plan that kills every core of both nodes leaves arrivals unroutable, and
// the dispatcher reports it instead of looping.
func TestUnschedulableCluster(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 20, 8, 0.8, 1)
	var script []fault.Event
	for core := 0; core < 4; core++ {
		script = append(script, fault.Event{Cycle: 1, Core: core, Kind: fault.CrashPermanent})
	}
	c := newTestCluster(t, db, Config{
		Nodes: mustNodes(t, "2*quad"),
		Sim:   core.SimConfig{Faults: fault.Plan{Script: script}},
	})
	_, err := c.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "surviving core") {
		t.Fatalf("all-dead cluster returned %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	db := testDB(t)
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "2*quad")})
	if _, err := c.Run(nil); err == nil {
		t.Error("empty workload accepted")
	}
	unsorted := []core.Job{
		{Index: 0, AppID: 1, ArrivalCycle: 100},
		{Index: 1, AppID: 1, ArrivalCycle: 50},
	}
	if _, err := c.Run(unsorted); err == nil {
		t.Error("unsorted workload accepted")
	}
}

// TestNodeFaultSeedsIndependent pins per-node fault isolation: distinct
// nodes draw distinct permanent-death timelines from one cluster plan,
// while a one-node cluster keeps the plan's seed.
func TestNodeFaultSeedsIndependent(t *testing.T) {
	db := testDB(t)
	base := fault.Plan{Seed: 5, PermanentMTTF: 1_000_000}
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "2*quad"), Sim: core.SimConfig{Faults: base}})
	p0, p1 := c.nodeFaults(0), c.nodeFaults(1)
	if p0.Seed == p1.Seed {
		t.Fatal("node plans share a seed")
	}
	d0, d1 := p0.PermanentDeaths(4), p1.PermanentDeaths(4)
	if reflect.DeepEqual(d0, d1) {
		t.Errorf("node death timelines identical: %v", d0)
	}
	one := newTestCluster(t, db, Config{Nodes: mustNodes(t, "quad"), Sim: core.SimConfig{Faults: base}})
	if !reflect.DeepEqual(one.nodeFaults(0), base) {
		t.Error("one-node cluster derived a fault seed")
	}
	// Scripted plans replay verbatim on every node.
	script := fault.Plan{Script: []fault.Event{{Cycle: 9, Core: 0, Kind: fault.CrashTransient}}}
	c = newTestCluster(t, db, Config{Nodes: mustNodes(t, "4*quad"), Sim: core.SimConfig{Faults: script}})
	if !reflect.DeepEqual(c.nodeFaults(3), script) {
		t.Error("scripted plan mutated per node")
	}
}

// BenchmarkClusterDispatch tracks pure routing overhead: filter, score and
// steal 1000 jobs over a 16-node mixed cluster, no node simulation.
func BenchmarkClusterDispatch(b *testing.B) {
	db := testDB(b)
	jobs := testJobs(b, db, 1000, 72, 0.8, 7)
	c := newTestCluster(b, db, Config{Nodes: mustNodes(b, "8*quad;4*4x8;4*16x2")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.newDispatch(jobs)
		if err := d.route(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterDispatch64 routes at perfbench's cluster scale: 5000
// jobs at utilization 0.9 over its 64-node topology, where the per-arrival
// scan of the affinity set and the per-node upkeep show.
func BenchmarkClusterDispatch64(b *testing.B) {
	db := testDB(b)
	nodes := mustNodes(b, "32*quad;16*4x8;16*16x2")
	cores := 0
	for _, n := range nodes {
		cores += n.Cores()
	}
	jobs := testJobs(b, db, 5000, cores, 0.9, 7)
	c := newTestCluster(b, db, Config{Nodes: nodes})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.newDispatch(jobs)
		if err := d.route(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRun64 is the whole cluster run at perfbench's scale:
// BenchmarkClusterDispatch64's workload and topology, routed while two
// workers simulate the nodes.
func BenchmarkClusterRun64(b *testing.B) {
	db := testDB(b)
	nodes := mustNodes(b, "32*quad;16*4x8;16*16x2")
	cores := 0
	for _, n := range nodes {
		cores += n.Cores()
	}
	jobs := testJobs(b, db, 5000, cores, 0.9, 7)
	c := newTestCluster(b, db, Config{Nodes: nodes, Workers: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunContext(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}
