package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/fault"
	"hetsched/internal/trace"
)

// scanAlive returns the node's distinct surviving sizes at t, ascending,
// and its surviving-core count, from the cores alone.
func scanAlive(sizes []int, deadAt []uint64, t uint64) ([]int, int) {
	var classes []int
	alive := 0
	for i, s := range sizes {
		if deadAt[i] == 0 || deadAt[i] > t {
			alive++
			if !slices.Contains(classes, s) {
				classes = append(classes, s)
			}
		}
	}
	slices.Sort(classes)
	return classes, alive
}

// scanEarliestFree returns the smallest busy-until among the cores alive
// at t and the first core holding it (unroutable, -1 when none survive).
func scanEarliestFree(deadAt, freeAt []uint64, t uint64) (uint64, int) {
	ef, at := uint64(unroutable), -1
	for i, f := range freeAt {
		if (deadAt[i] == 0 || deadAt[i] > t) && f < ef {
			ef, at = f, i
		}
	}
	return ef, at
}

// scanLadder picks the size the fallback ladder chooses for a prediction
// of want among the surviving classes: the largest at or below it, else
// the smallest (0 when none survive).
func scanLadder(classes []int, want int) int {
	if len(classes) == 0 {
		return 0
	}
	chosen := classes[0]
	for _, s := range classes {
		if s <= want {
			chosen = s
		}
	}
	return chosen
}

// TestAliveSummaryCache checks the per-node surviving-core cache — the
// count, the size mask, the fallback ladder and the earliest-free core —
// against a from-scratch scan at every cycle around each death, including
// a backwards step the forward-only dispatcher never takes.
func TestAliveSummaryCache(t *testing.T) {
	ns := &nodeState{
		sizes:  []int{8, 2, 4, 8, 2},
		deadAt: []uint64{0, 100, 50, 300, 100},
		freeAt: []uint64{90, 20, 10, 40, 20},
		ladder: make([]uint8, len(cache.Sizes())+1),
	}
	sizes := cache.Sizes()
	for _, at := range []uint64{0, 49, 50, 51, 99, 100, 101, 299, 300, 1000, 60, 0, 400} {
		classes, alive := scanAlive(ns.sizes, ns.deadAt, at)
		ns.refresh(at)
		ns.refreshFree(at)
		l := ns.load
		if got := ns.alive; got != alive {
			t.Errorf("t=%d: alive %d, want %d", at, got, alive)
		}
		for k, size := range sizes {
			if got, want := ns.sizeMask&(1<<k) != 0, slices.Contains(classes, size); got != want {
				t.Errorf("t=%d: size %d in mask = %v, want %v", at, size, got, want)
			}
		}
		if alive > 0 {
			for _, want := range []int{0, 1, 2, 3, 4, 6, 8, 16} {
				rank := 0
				for k, s := range sizes {
					if s <= want {
						rank = k + 1
					}
				}
				if got, exp := sizes[ns.ladder[rank]], scanLadder(classes, want); got != exp {
					t.Errorf("t=%d: ladder for %d KB picks %d, want %d", at, want, got, exp)
				}
			}
		}
		if ef, core := scanEarliestFree(ns.deadAt, ns.freeAt, at); l.ef != ef || ns.efCore != core {
			t.Errorf("t=%d: earliest free %d on core %d, want %d on core %d", at, l.ef, ns.efCore, ef, core)
		}
	}
}

// TestBacklogBalances routes a faulted, stealing workload and checks the
// running backlog sums stay equal to a re-sum of each queue at every
// arrival boundary, ending at zero once the drain empties every queue.
// At every arrival it also checks each node's cached earliest-free cycle
// and wait against a scan of its cores.
func TestBacklogBalances(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 600, 36, 0.9, 3)
	c := newTestCluster(t, db, Config{
		Nodes: mustNodes(t, "4*quad;2*4x8;2*16x2"),
		Sim:   core.SimConfig{Faults: fault.Plan{Seed: 4, PermanentMTTF: 3_000_000}},
	})
	d := c.newDispatch(jobs)
	check := func(when string) {
		t.Helper()
		for i, ns := range d.nodes {
			var sum uint64
			for _, p := range ns.queue {
				sum += d.est(jobs[p].AppID)
			}
			if ns.backlog != sum {
				t.Fatalf("%s: node %d backlog %d, queue sums to %d", when, i, ns.backlog, sum)
			}
		}
	}
	checkWait := func(at uint64) {
		t.Helper()
		d.setClock(at)
		for i, ns := range d.nodes {
			l := ns.load
			ef, _ := scanEarliestFree(ns.deadAt, ns.freeAt, at)
			if l.ef != ef {
				t.Fatalf("t=%d: node %d earliest free %d, scan %d", at, i, l.ef, ef)
			}
			_, alive := scanAlive(ns.sizes, ns.deadAt, at)
			if alive == 0 {
				continue
			}
			if got, want := l.wait(at), max(ef, at)-at+ns.backlog/uint64(alive); got != want {
				t.Fatalf("t=%d: node %d wait %d, scan %d", at, i, got, want)
			}
		}
	}
	for p, job := range jobs {
		for i := range d.nodes {
			d.advance(i, job.ArrivalCycle)
		}
		d.stealPass(job.ArrivalCycle)
		check("after steal pass")
		checkWait(job.ArrivalCycle)
		if err := d.routeOne(p, job.ArrivalCycle); err != nil {
			t.Fatal(err)
		}
		check("after route")
		checkWait(job.ArrivalCycle)
	}
	if err := d.drain(context.Background(), jobs[len(jobs)-1].ArrivalCycle); err != nil {
		t.Fatal(err)
	}
	check("after drain")
	if d.steals == 0 {
		t.Error("no steals; the workload does not exercise the steal path")
	}

	// The step-by-step walk above is route itself (route merely skips
	// the no-op advances and steal passes), so a fresh dispatch assigns
	// every job identically.
	again := c.newDispatch(jobs)
	if err := again.route(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range d.nodes {
		if !reflect.DeepEqual(startedOn(d, i), startedOn(again, i)) {
			t.Fatalf("node %d assignment differs between the walk and route", i)
		}
	}
}

// TestRouteHonorsCancellation: a cancelled context stops a traced run in
// the route pass, before most arrivals are routed.
func TestRouteHonorsCancellation(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 2000, 36, 0.9, 3)
	rec := trace.NewRecorder()
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "4*quad;2*4x8;2*16x2"), Trace: rec})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a cancelled context: %v, want context.Canceled", err)
	}
	routes := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindRoute {
			routes++
		}
	}
	if routes >= ctxCheckEvery {
		t.Errorf("%d route events after cancellation, want fewer than %d", routes, ctxCheckEvery)
	}
}

// startedOn returns the jobs the dispatch started on node, in start order.
func startedOn(d *dispatch, node int) []core.Job {
	var out []core.Job
	for _, p := range d.started {
		if d.owner[p] == int32(node) {
			out = append(out, d.jobs[p])
		}
	}
	return out
}

// TestBestOfKeepsFloatTies pins the integer-wait rule's tie handling: two
// affinity-set nodes whose waits differ but whose hybrid scores round to
// the same float. The first strict minimum is the lower index, even though
// the later node waits less; an argmin over the integer waits alone would
// pick the later one.
func TestBestOfKeepsFloatTies(t *testing.T) {
	db := testDB(t)
	c := newTestCluster(t, db, Config{Nodes: mustNodes(t, "2*quad")})
	d := c.newDispatch(nil)
	const now = 1000
	d.setClock(now)
	d.nodes[0].load = load{ef: now + 100}
	d.nodes[1].load = load{ef: now + 50}
	k := len(cache.Sizes()) - 1
	a := &appInfo{est: 1 << 60, want: cache.Sizes()[k], wantK: k, rank: k + 1, nj: make([]float64, k+1)}
	a.nj[k] = 3
	w0, w1 := d.nodes[0].load.wait(now), d.nodes[1].load.wait(now)
	s0, s1 := d.score(a, d.nodes[0], w0), d.score(a, d.nodes[1], w1)
	if w1 >= w0 || s0 != s1 {
		t.Fatalf("waits %d, %d and scores %v, %v: want the later node to wait less at an equal score", w0, w1, s0, s1)
	}
	for _, byWait := range []bool{true, false} {
		if winner, best := d.bestOf(&d.bySize[k], a, now, byWait); winner != 0 || best != s0 {
			t.Errorf("byWait=%v: winner %d scoring %v, want node 0 scoring %v", byWait, winner, best, s0)
		}
	}
}

// TestNodeSetNth pins nth across a word boundary, and its loud failure on
// an index outside the set, a negative one included: a set whose first
// word is empty must not answer with a node it does not hold.
func TestNodeSetNth(t *testing.T) {
	var s nodeSet
	for _, i := range []int{70, 64, 129} {
		s.add(i)
	}
	for k, want := range []int{64, 70, 129} {
		if got := s.nth(k); got != want {
			t.Errorf("nth(%d) = %d, want %d", k, got, want)
		}
	}
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nth(%d) on a 3-member set did not panic", k)
				}
			}()
			s.nth(k)
		}()
	}
}

// refNode is the reference router's view of one node: its cores and its
// queue, with every summary rescanned on demand.
type refNode struct {
	sizes          []int
	deadAt, freeAt []uint64
	queue, jobs    []core.Job
}

// refRoute is one routing decision as the trace reports it.
type refRoute struct {
	job, node, cands int
	relaxed          bool
	scoreBits        uint64
}

// refSteal is one steal as the trace reports it.
type refSteal struct{ job, thief, victim int }

// refRouter routes from scratch: no summaries, no per-app tables, no
// skipped passes. Every survivor count, earliest-free core, wait, chosen
// size and energy is recomputed from the cores and the DB on every call.
type refRouter struct {
	c      *Cluster
	nodes  []*refNode
	routes []refRoute
	steals []refSteal
}

func newRefRouter(c *Cluster) *refRouter {
	r := &refRouter{c: c}
	for i, spec := range c.cfg.Nodes {
		n := &refNode{
			sizes:  core.CoreSizesFor(c.cfg.System, spec.CoreSizesKB),
			deadAt: make([]uint64, spec.Cores()),
			freeAt: make([]uint64, spec.Cores()),
		}
		for _, ev := range c.nodeFaults(i).PermanentDeaths(spec.Cores()) {
			n.deadAt[ev.Core] = ev.Cycle
		}
		r.nodes = append(r.nodes, n)
	}
	return r
}

func (r *refRouter) est(app int) uint64 {
	if rec, err := r.c.db.Record(app); err == nil && rec.BestConfig().Cycles > 0 {
		return rec.BestConfig().Cycles
	}
	return 1
}

func (r *refRouter) want(app int) int {
	rec, err := r.c.db.Record(app)
	if err != nil {
		return 0
	}
	size := rec.BestSizeKB()
	if r.c.needsPred && r.c.pred != nil {
		if p, err := r.c.pred.PredictSizeKB(rec.Features); err == nil {
			size = p
		}
	}
	return size
}

func (r *refRouter) wait(n *refNode, t uint64) uint64 {
	_, alive := scanAlive(n.sizes, n.deadAt, t)
	if alive == 0 {
		return unroutable
	}
	var backlog uint64
	for _, j := range n.queue {
		backlog += r.est(j.AppID)
	}
	ef, _ := scanEarliestFree(n.deadAt, n.freeAt, t)
	w := uint64(0)
	if ef > t {
		w = ef - t
	}
	return w + backlog/uint64(alive)
}

func (r *refRouter) energy(n *refNode, app int, t uint64) float64 {
	classes, _ := scanAlive(n.sizes, n.deadAt, t)
	rec, err := r.c.db.Record(app)
	if len(classes) == 0 || err != nil {
		return 0
	}
	cr, err := rec.BestConfigForSize(scanLadder(classes, r.want(app)))
	if err != nil {
		return 0
	}
	return cr.Energy.Total
}

func (r *refRouter) score(n *refNode, job core.Job, t uint64) float64 {
	switch r.c.cfg.Scorer {
	case ScoreBalance:
		return float64(r.wait(n, t))
	case ScoreEnergy:
		return r.energy(n, job.AppID, t)
	default:
		e := r.energy(n, job.AppID, t)
		penalty := 1 + float64(r.wait(n, t))/float64(r.est(job.AppID))
		return e * penalty
	}
}

func (r *refRouter) advance(n *refNode, t uint64) {
	for len(n.queue) > 0 {
		ef, i := scanEarliestFree(n.deadAt, n.freeAt, t)
		if i < 0 || ef > t {
			return
		}
		job := n.queue[0]
		n.queue = n.queue[1:]
		n.freeAt[i] = max(ef, job.ArrivalCycle) + r.est(job.AppID)
		n.jobs = append(n.jobs, job)
	}
}

func (r *refRouter) stealPass(t uint64) {
	if r.c.cfg.DisableStealing {
		return
	}
	for {
		victim := -1
		for i, n := range r.nodes {
			_, alive := scanAlive(n.sizes, n.deadAt, t)
			if len(n.queue) == 0 || alive > 0 && len(n.queue) <= r.c.cfg.StealThreshold {
				continue
			}
			if victim < 0 || len(n.queue) > len(r.nodes[victim].queue) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		thief := -1
		for i, n := range r.nodes {
			ef, _ := scanEarliestFree(n.deadAt, n.freeAt, t)
			if i != victim && len(n.queue) == 0 && ef != unroutable && ef <= t {
				thief = i
				break
			}
		}
		if thief < 0 {
			return
		}
		vn := r.nodes[victim]
		job := vn.queue[len(vn.queue)-1]
		vn.queue = vn.queue[:len(vn.queue)-1]
		r.nodes[thief].queue = append(r.nodes[thief].queue, job)
		r.advance(r.nodes[thief], t)
		r.steals = append(r.steals, refSteal{job.Index, thief, victim})
	}
}

func (r *refRouter) routeOne(job core.Job, t uint64) error {
	var capacity, affine []int
	want := r.want(job.AppID)
	for i, n := range r.nodes {
		classes, alive := scanAlive(n.sizes, n.deadAt, t)
		if alive == 0 {
			continue
		}
		capacity = append(capacity, i)
		if slices.Contains(classes, want) {
			affine = append(affine, i)
		}
	}
	if len(capacity) == 0 {
		return fmt.Errorf("cluster: job %d: no node has a surviving core at cycle %d", job.Index, t)
	}
	cands, relaxed := affine, len(affine) == 0
	if relaxed {
		cands = capacity
	}
	winner, best := cands[0], 0.0
	if r.c.cfg.Scorer == ScoreRoundRobin {
		winner = cands[job.Index%len(cands)]
	} else {
		best = r.score(r.nodes[winner], job, t)
		for _, i := range cands[1:] {
			if s := r.score(r.nodes[i], job, t); s < best {
				winner, best = i, s
			}
		}
	}
	r.nodes[winner].queue = append(r.nodes[winner].queue, job)
	r.advance(r.nodes[winner], t)
	r.routes = append(r.routes, refRoute{job.Index, winner, len(cands), relaxed, math.Float64bits(best)})
	return nil
}

func (r *refRouter) route(jobs []core.Job) error {
	var t uint64
	for _, job := range jobs {
		t = job.ArrivalCycle
		for _, n := range r.nodes {
			r.advance(n, t)
		}
		r.stealPass(t)
		if err := r.routeOne(job, t); err != nil {
			return err
		}
	}
	for {
		for _, n := range r.nodes {
			r.advance(n, t)
		}
		r.stealPass(t)
		pending, next := 0, uint64(unroutable)
		for _, n := range r.nodes {
			pending += len(n.queue)
			for i, at := range n.freeAt {
				if at > t && at < next && (n.deadAt[i] == 0 || n.deadAt[i] > at) {
					next = at
				}
			}
		}
		if pending == 0 {
			return nil
		}
		if next == unroutable {
			return fmt.Errorf("cluster: %d queued jobs unschedulable (no surviving cores)", pending)
		}
		t = next
	}
}

// settledShares collects what d's settles publish into each node's share,
// and fails unless every settle keeps the watermark contract: the
// watermark never falls, each batch extends its node's share in
// (ArrivalCycle, Index) order with jobs arriving at or past the previous
// watermark and before the new one, and after the route pass no unrouted
// or queued job arrives before the watermark. The last settle closes the
// input with settledAll.
func settledShares(t *testing.T, name string, d *dispatch) [][]core.Job {
	t.Helper()
	shares := make([][]core.Job, len(d.nodes))
	prev := uint64(0)
	d.publish = func(until uint64, batches [][]core.Job) {
		if until < prev {
			t.Fatalf("%s: watermark fell from %d to %d", name, prev, until)
		}
		for i, b := range batches {
			for k, j := range b {
				last := core.Job{Index: -1}
				if k > 0 {
					last = b[k-1]
				} else if n := len(shares[i]); n > 0 {
					last = shares[i][n-1]
				}
				if j.ArrivalCycle < prev || j.ArrivalCycle >= until ||
					last.Index >= 0 && (j.ArrivalCycle < last.ArrivalCycle || j.ArrivalCycle == last.ArrivalCycle && j.Index < last.Index) {
					t.Fatalf("%s: node %d settled job %d at cycle %d out of order in the watermark interval [%d, %d)",
						name, i, j.Index, j.ArrivalCycle, prev, until)
				}
			}
			shares[i] = append(shares[i], b...)
		}
		for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
			if head := d.jobs[d.nodes[i].queue[0]]; head.ArrivalCycle < until {
				t.Fatalf("%s: node %d still queues job %d at cycle %d below watermark %d", name, i, head.Index, head.ArrivalCycle, until)
			}
		}
		prev = until
	}
	return shares
}

// matchReference routes jobs on c traced and untraced, and on the
// reference router, and fails unless all three agree. The traced run must
// make every decision the reference makes: the winner, the relaxed flag,
// the candidate count and the score bits of each route, and every steal.
// Both runs must end with the reference's error, steal counts and final
// jobs per node, and settle the workload into the shares a per-node sort
// of the reference's jobs gives: the traced run in one settle, the
// untraced one every 5 arrivals. It returns the untraced dispatch, the
// shares (nil when routing fails) and the reference's route error.
func matchReference(t *testing.T, name string, c *Cluster, jobs []core.Job) (*dispatch, [][]core.Job, error) {
	t.Helper()
	ref := newRefRouter(c)
	refErr := ref.route(jobs)

	traced := *c
	rec := trace.NewRecorder()
	traced.cfg.Trace = rec
	var runs [2]*dispatch
	var shares [2][][]core.Job
	for k, cl := range []*Cluster{&traced, c} {
		runs[k] = cl.newDispatch(jobs)
		runs[k].settleEvery = 5 * k // the traced run settles once, at the end
		shares[k] = settledShares(t, name, runs[k])
		if err := runs[k].route(context.Background()); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: route error %v (traced=%v), reference %v", name, err, cl == &traced, refErr)
		}
	}
	if refErr != nil {
		return runs[1], nil, refErr
	}

	var routes []refRoute
	var steals []refSteal
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindRoute:
			var k, n int
			if _, err := fmt.Sscanf(strings.Fields(ev.Detail)[1], "cand=%d/%d", &k, &n); err != nil {
				t.Fatalf("%s: route detail %q: %v", name, ev.Detail, err)
			}
			routes = append(routes, refRoute{ev.Job, ev.Core, k,
				strings.HasSuffix(ev.Detail, " relaxed"), math.Float64bits(ev.EnergyNJ)})
		case trace.KindSteal:
			steals = append(steals, refSteal{ev.Job, ev.Core, int(ev.Start)})
		}
	}
	if len(routes) != len(ref.routes) {
		t.Fatalf("%s: %d routes, reference %d", name, len(routes), len(ref.routes))
	}
	for i := range routes {
		if routes[i] != ref.routes[i] {
			t.Fatalf("%s: route %d = %+v, reference %+v", name, i, routes[i], ref.routes[i])
		}
	}
	if !slices.Equal(steals, ref.steals) {
		t.Fatalf("%s: %d traced steals differ from the reference's %d", name, len(steals), len(ref.steals))
	}

	want := make([][]core.Job, len(c.cfg.Nodes))
	for i, n := range ref.nodes {
		want[i] = slices.Clone(n.jobs)
		sort.Slice(want[i], func(a, b int) bool {
			if want[i][a].ArrivalCycle != want[i][b].ArrivalCycle {
				return want[i][a].ArrivalCycle < want[i][b].ArrivalCycle
			}
			return want[i][a].Index < want[i][b].Index
		})
	}
	stolenIn, stolenOut := make([]int, len(c.cfg.Nodes)), make([]int, len(c.cfg.Nodes))
	for _, st := range ref.steals {
		stolenIn[st.thief]++
		stolenOut[st.victim]++
	}
	for k, d := range runs {
		run := fmt.Sprintf("%s (traced=%v)", name, k == 0)
		if d.steals != len(ref.steals) {
			t.Fatalf("%s: %d steals, reference %d", run, d.steals, len(ref.steals))
		}
		for i, ns := range d.nodes {
			if !slices.Equal(startedOn(d, i), ref.nodes[i].jobs) {
				t.Fatalf("%s: node %d final jobs differ from the reference", run, i)
			}
			if ns.stolenIn != stolenIn[i] || ns.stolenOut != stolenOut[i] {
				t.Fatalf("%s: node %d stole %d in, %d out; reference %d, %d",
					run, i, ns.stolenIn, ns.stolenOut, stolenIn[i], stolenOut[i])
			}
		}
		for i, share := range shares[k] {
			if !slices.Equal(share, want[i]) {
				t.Fatalf("%s: node %d share differs from the reference's jobs sorted by arrival", run, i)
			}
		}
	}
	return runs[1], want, nil
}

// matchBareNodes runs c over jobs and fails unless the run agrees with
// bare simulator runs over shares, the nodes' jobs in arrival order: every
// node's Metrics equal its share's run, and a failing run reports routeErr
// when routing fails, else the error of the lowest-indexed node whose share
// fails, as RunContext wraps it.
func matchBareNodes(t *testing.T, name string, c *Cluster, jobs []core.Job, shares [][]core.Job, routeErr error) {
	t.Helper()
	res, err := c.RunContext(context.Background(), jobs)
	wantErr := routeErr
	bare := make([]core.Metrics, len(shares))
	for i, share := range shares {
		bare[i] = core.Metrics{System: c.cfg.System}
		if len(share) == 0 || wantErr != nil {
			continue
		}
		sim, err := c.newNodeSim(i, nil)
		if err == nil {
			bare[i], err = sim.RunContext(context.Background(), share)
		}
		if err != nil {
			wantErr = fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s at %d workers: error %v, want %v", name, c.cfg.Workers, err, wantErr)
	}
	if err != nil {
		return
	}
	for i, m := range bare {
		if !reflect.DeepEqual(res.Nodes[i].Metrics, m) {
			t.Fatalf("%s at %d workers: node %d metrics differ from a bare run of its share", name, c.cfg.Workers, i)
		}
	}
}

// TestDispatchMatchesReference routes each scorer, with and without
// stealing, on both per-node views ("proposed" keeps the declared sizes,
// "base" flattens every core to 8 KB), with no faults and with a plan in
// which the one quad node loses every core mid-run (so its backlog is
// evacuated) while the six-core nodes fall back to their 8 KB cores; see
// matchReference for what must agree.
func TestDispatchMatchesReference(t *testing.T) {
	db := testDB(t)
	nodes := mustNodes(t, "quad;2*16x2;2*2x2,2x4,2x8;6x8")
	jobs := testJobs(t, db, 500, 54, 0.95, 5)
	death := jobs[len(jobs)/3].ArrivalCycle
	var script []fault.Event
	for core := 0; core < 4; core++ {
		script = append(script, fault.Event{Cycle: death + uint64(core)*1000, Core: core, Kind: fault.CrashPermanent})
	}
	plans := map[string]fault.Plan{"none": {}, "death": {Script: script}}
	evacuated := false
	for _, system := range []string{"proposed", "base"} {
		for _, plan := range []string{"none", "death"} {
			for scorer := ScorerKind(0); scorer < scorerCount; scorer++ {
				for _, noSteal := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/nosteal=%v", system, plan, scorer, noSteal)
					c := newTestCluster(t, db, Config{
						Nodes: nodes, System: system, Scorer: scorer, DisableStealing: noSteal,
						Sim: core.SimConfig{Faults: plans[plan]},
					})
					d, _, _ := matchReference(t, name, c, jobs)
					if plan == "death" && !noSteal && d.nodes[0].stolenOut > 0 {
						evacuated = true
					}
				}
			}
		}
	}
	if !evacuated {
		t.Error("no run evacuated the dead quad node")
	}
}

// FuzzDispatchMatchesReference checks the dispatcher against the reference
// router (see matchReference) on random clusters of 2 to 130 nodes, so the
// node sets cross a word boundary. mode picks the scorer (bits 0-1),
// turns stealing off (bit 2), flattens every core to 8 KB with "base"
// (bit 3) and picks the fault plan (bits 4-5: none, scripted permanent
// deaths shared by every node, or stochastic per-node deaths that may
// kill a node outright). The seed draws the topology, from a random subset
// of the cache sizes so that some predictions find no node of their size,
// the workload, with a few jobs of apps outside the DB and some arrival
// ties whose indexes run against workload order, and the steal threshold.
// The whole run, at 1, 2, 3 or 8 workers by seed, must then match bare
// simulator runs of the reference's shares (see matchBareNodes): a job of
// an unknown app fails its node's simulation.
func FuzzDispatchMatchesReference(f *testing.F) {
	widths := []uint8{0, 5, 62, 63, 128, 127, 31, 126} // 2 + width nodes
	for k := 0; k < 24; k++ {
		mode := uint8(k%4 | (k/4%2)<<2 | (k%3/2)<<3 | (k/8)<<4)
		f.Add(int64(k+1), widths[(k+k/4)%len(widths)], mode)
	}
	// Five nodes under a scripted crash plan, hybrid scorer, stealing on, a
	// steal threshold of 3: a node loses its last core while its backlog is
	// no deeper than the threshold, so only the dead-node evacuation in
	// stealPass moves that work.
	f.Add(int64(1), uint8(3), uint8(0x10))
	db := testDB(f)
	f.Fuzz(func(t *testing.T, seed int64, width, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		sizes := cache.Sizes()
		var allowed []int
		for len(allowed) == 0 {
			for _, s := range sizes {
				if rng.Intn(3) > 0 {
					allowed = append(allowed, s)
				}
			}
		}
		nodes := make([]core.SystemSpec, 2+int(width)%129)
		cores := 0
		for i := range nodes {
			kb := make([]int, 1+rng.Intn(6))
			if rng.Intn(8) == 0 {
				kb = make([]int, 16)
			}
			for k := range kb {
				kb[k] = allowed[rng.Intn(len(allowed))]
			}
			nodes[i] = core.SystemSpec{CoreSizesKB: kb}
			cores += len(kb)
		}
		jobs := testJobs(t, db, 50+rng.Intn(250), cores, []float64{0.7, 1.2, 2.5}[rng.Intn(3)], seed)
		for k := rng.Intn(4); k > 0; k-- {
			jobs[rng.Intn(len(jobs))].AppID = []int{-1, len(db.Records), len(db.Records) + 7}[rng.Intn(3)]
		}
		for k := rng.Intn(len(jobs) / 4); k > 0; k-- {
			p := 1 + rng.Intn(len(jobs)-1)
			jobs[p].ArrivalCycle = jobs[p-1].ArrivalCycle
			jobs[p].Index, jobs[p-1].Index = jobs[p-1].Index, jobs[p].Index
		}
		horizon := jobs[len(jobs)-1].ArrivalCycle + 1
		var plan fault.Plan
		switch mode >> 4 % 3 {
		case 1:
			for k := rng.Intn(8); k > 0; k-- {
				plan.Script = append(plan.Script, fault.Event{
					Cycle: uint64(rng.Int63n(int64(horizon))), Core: rng.Intn(6), Kind: fault.CrashPermanent})
			}
			slices.SortFunc(plan.Script, func(a, b fault.Event) int { return cmp.Compare(a.Cycle, b.Cycle) })
		case 2:
			plan = fault.Plan{Seed: seed, PermanentMTTF: max(1000, horizon/uint64(1+rng.Intn(3))), MaxPermanent: 16}
		}
		system := "proposed"
		if mode&8 != 0 {
			system = "base"
		}
		c := newTestCluster(t, db, Config{
			Nodes: nodes, System: system, Scorer: ScorerKind(mode & 3), DisableStealing: mode&4 != 0,
			StealThreshold: 1 + rng.Intn(3), Sim: core.SimConfig{Faults: plan},
		})
		name := fmt.Sprintf("seed=%d/width=%d/mode=%#x", seed, len(nodes), mode)
		_, shares, err := matchReference(t, name, c, jobs)
		c.cfg.Workers = []int{1, 2, 3, 8}[seed&3]
		matchBareNodes(t, name, c, jobs, shares, err)
	})
}
