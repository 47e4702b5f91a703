package cluster

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// unroutable is the wait estimate of a node with no surviving cores.
const unroutable = ^uint64(0)

// ctxCheckEvery is how many arrivals route handles between context checks.
const ctxCheckEvery = 256

// nodeState is the dispatcher's estimate of one node: a per-core
// busy-until horizon fed by the characterization DB's best-config cycle
// counts, plus the FIFO backlog of routed-but-not-yet-started jobs. It is
// deliberately cheap and state-independent of the node's real simulation —
// the global tier routes on estimates, the local policy decides placements.
type nodeState struct {
	sizes   []int    // effective per-core cache sizes
	deadAt  []uint64 // per-core permanent-death cycle (0 = never)
	freeAt  []uint64 // estimated busy-until per core
	queue   []core.Job
	backlog uint64     // summed estimates of queue, kept in step with it
	jobs    []core.Job // final assignment, in estimated start order

	// The surviving cores change only at a permanent death, all known in
	// advance, so their summary is computed once per interval between
	// deaths: valid for t in [aliveFrom, aliveUntil). Size indices are
	// positions in cache.Sizes(), which every node spec is validated
	// against.
	alive                 int
	sizeMask              uint64  // bit k: a core of cache.Sizes()[k] survives
	ladder                []uint8 // ladder[r]: size index chosen for a prediction with r sizes at or below it (unused when alive is 0)
	aliveFrom, aliveUntil uint64

	// The earliest-free surviving core and the backlog spread over the
	// survivors, both derived from the fields above. Anything that moves
	// freeAt, the backlog or the alive interval clears fresh.
	fresh  bool
	efCore int    // -1 when no core survives
	ef     uint64 // freeAt[efCore], or unroutable
	spread uint64 // backlog / alive

	maxPending          int
	stolenIn, stolenOut int
}

// aliveAt reports whether core i has not permanently died by cycle t.
func (ns *nodeState) aliveAt(i int, t uint64) bool {
	return ns.deadAt[i] == 0 || ns.deadAt[i] > t
}

// refresh brings every summary up to date for cycle t.
func (ns *nodeState) refresh(t uint64) {
	if t < ns.aliveFrom || t >= ns.aliveUntil || !ns.fresh {
		ns.recompute(t)
	}
}

// recompute is refresh's slow path, kept out of line so the fast path
// inlines. A new alive interval always stales the free-core summary.
func (ns *nodeState) recompute(t uint64) {
	if t < ns.aliveFrom || t >= ns.aliveUntil {
		ns.refreshAlive(t)
	}
	ns.refreshFree(t)
}

// idleAt reports whether some alive core is free at t.
func (ns *nodeState) idleAt(t uint64) bool {
	ns.refresh(t)
	return ns.ef != unroutable && ns.ef <= t
}

// aliveCount returns how many cores survive at t.
func (ns *nodeState) aliveCount(t uint64) int {
	ns.refresh(t)
	return ns.alive
}

// refreshAlive recomputes the surviving-core summary for the interval
// holding t: at the node's next permanent death, or (never on the
// dispatcher's forward clock) before its start.
func (ns *nodeState) refreshAlive(t uint64) {
	sizes := cache.Sizes()
	alive, until, mask := 0, uint64(unroutable), uint64(0)
	for i, s := range ns.sizes {
		if d := ns.deadAt[i]; d > t && d < until {
			until = d
		}
		if ns.aliveAt(i, t) {
			alive++
			mask |= 1 << slices.Index(sizes, s)
		}
	}
	// The fallback ladder walks down from the prediction, then up: the
	// largest surviving size at or below it, else the smallest survivor.
	chosen := uint8(bits.TrailingZeros64(mask)) // the smallest survivor
	ns.ladder[0] = chosen
	for k := range sizes {
		if mask&(1<<k) != 0 {
			chosen = uint8(k)
		}
		ns.ladder[k+1] = chosen
	}
	ns.alive, ns.sizeMask, ns.aliveFrom, ns.aliveUntil = alive, mask, t, until
	ns.fresh = false
}

// refreshFree rescans for the earliest-free surviving core and respreads
// the backlog. The alive summary must hold t.
func (ns *nodeState) refreshFree(t uint64) {
	ns.efCore, ns.ef, ns.spread = -1, unroutable, 0
	for i, at := range ns.freeAt {
		if ns.aliveAt(i, t) && at < ns.ef {
			ns.efCore, ns.ef = i, at
		}
	}
	if ns.alive > 0 {
		ns.spread = ns.backlog / uint64(ns.alive)
	}
	ns.fresh = true
}

// victimAt reports whether a steal at t may take from the node: its
// backlog exceeds threshold, or it has a backlog and no surviving core.
func (ns *nodeState) victimAt(t uint64, threshold int) bool {
	return len(ns.queue) > threshold || len(ns.queue) > 0 && ns.aliveCount(t) == 0
}

// enqueue appends a routed job, estimated at exec cycles, to the backlog.
func (ns *nodeState) enqueue(job core.Job, exec uint64) {
	ns.queue = append(ns.queue, job)
	ns.backlog += exec
	ns.fresh = false
}

// popTail removes the backlog's last job, estimated at exec cycles.
func (ns *nodeState) popTail(exec uint64) core.Job {
	job := ns.queue[len(ns.queue)-1]
	ns.queue = ns.queue[:len(ns.queue)-1]
	ns.backlog -= exec
	ns.fresh = false
	return job
}

// start begins the queue head on the earliest-free surviving core,
// recording the job as finally assigned. The caller has just seen idleAt.
func (ns *nodeState) start(est func(app int) uint64) {
	job := ns.queue[0]
	// Shift rather than reslice: the queue keeps its backing array, so
	// enqueue stops allocating once it has held the node's deepest backlog.
	ns.queue = ns.queue[:copy(ns.queue, ns.queue[1:])]
	exec := est(job.AppID)
	ns.backlog -= exec
	ns.freeAt[ns.efCore] = max(ns.ef, job.ArrivalCycle) + exec
	ns.fresh = false
	ns.jobs = append(ns.jobs, job)
}

// advance starts every queued job that can begin by cycle t.
func (ns *nodeState) advance(t uint64, est func(app int) uint64) {
	for len(ns.queue) > 0 && ns.idleAt(t) {
		ns.start(est)
	}
}

// wait estimates how long a job routed to the node at t would queue: the
// gap until a surviving core frees, plus the backlog spread over the
// surviving cores. The node's summary must be current at t and have a
// surviving core.
func (ns *nodeState) wait(t uint64) uint64 {
	return max(ns.ef, t) - t + ns.spread
}

// appInfo is the dispatcher's per-application summary, filled on the
// app's first route.
type appInfo struct {
	filled  bool
	est     uint64    // best-config execution cycles, at least 1
	want    int       // predicted best cache size
	wantBit uint64    // want's bit in a node's sizeMask (0 off Table 1)
	rank    int       // how many cache.Sizes() are at or below want
	nj      []float64 // best characterized energy per cache.Sizes() index (0 if none)
}

// dispatch is one run's routing state.
type dispatch struct {
	c      *Cluster
	nodes  []*nodeState
	steals int

	apps    []appInfo // indexed by app ID, dense over db.Records
	unknown appInfo   // every app ID outside the DB
}

func (c *Cluster) newDispatch() *dispatch {
	nsizes := len(cache.Sizes())
	d := &dispatch{
		c:       c,
		nodes:   make([]*nodeState, len(c.cfg.Nodes)),
		apps:    make([]appInfo, len(c.db.Records)),
		unknown: appInfo{est: 1, nj: make([]float64, nsizes)},
	}
	nj := make([]float64, len(d.apps)*nsizes)
	for i := range d.apps {
		d.apps[i].nj = nj[i*nsizes : (i+1)*nsizes : (i+1)*nsizes]
	}
	states := make([]nodeState, len(c.cfg.Nodes))
	ladders := make([]uint8, len(states)*(nsizes+1))
	for i, spec := range c.cfg.Nodes {
		// The dispatcher sees each node's effective core sizes ("base"
		// flattens every core to 8 KB) and its permanent-loss timeline.
		ns := &states[i]
		ns.ladder = ladders[i*(nsizes+1) : (i+1)*(nsizes+1) : (i+1)*(nsizes+1)]
		ns.sizes = core.CoreSizesFor(c.cfg.System, spec.CoreSizesKB)
		ns.deadAt = make([]uint64, spec.Cores())
		ns.freeAt = make([]uint64, spec.Cores())
		for _, ev := range c.nodeFaults(i).PermanentDeaths(spec.Cores()) {
			if ev.Core >= 0 && ev.Core < len(ns.deadAt) {
				ns.deadAt[ev.Core] = ev.Cycle
			}
		}
		d.nodes[i] = ns
	}
	return d
}

// app returns the app's summary, filling it on first use: its best-config
// cycle count (at least 1, so the estimate clock always advances) and its
// predicted best cache size — the cluster's predictor on the characterized
// (clean) features, falling back to the oracle best size for
// predictor-free systems.
func (d *dispatch) app(id int) *appInfo {
	if id < 0 || id >= len(d.apps) {
		return &d.unknown
	}
	a := &d.apps[id]
	if a.filled {
		return a
	}
	rec := &d.c.db.Records[id]
	a.filled, a.est, a.want = true, 1, rec.BestSizeKB()
	if best := rec.BestConfig(); best.Cycles > 0 {
		a.est = best.Cycles
	}
	if d.c.needsPred && d.c.pred != nil {
		if p, err := d.c.pred.PredictSizeKB(rec.Features); err == nil {
			a.want = p
		}
	}
	for k, s := range cache.Sizes() {
		if s <= a.want {
			a.rank = k + 1
		}
		if s == a.want {
			a.wantBit = 1 << k
		}
		if cr, err := rec.BestConfigForSize(s); err == nil {
			a.nj[k] = cr.Energy.Total
		}
	}
	return a
}

// est returns the app's estimated execution cycles.
func (d *dispatch) est(app int) uint64 { return d.app(app).est }

// energyOn estimates the job's execution energy on a node: the best
// characterized energy at the node's closest surviving size to the
// predicted best (the ladder walks down, then up — the same preference
// order as the resilient fallback chain). The node's summary must be
// current at the routing cycle and have a surviving core.
func (a *appInfo) energyOn(ns *nodeState) float64 {
	return a.nj[ns.ladder[a.rank]]
}

// route runs the full dispatch: filter/score each arrival in order,
// stealing at every arrival boundary, then drain the remaining backlogs.
// It checks ctx every ctxCheckEvery arrivals and at every drain step.
func (d *dispatch) route(ctx context.Context, jobs []core.Job) error {
	var lastArrival uint64
	for n, job := range jobs {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := job.ArrivalCycle
		lastArrival = t
		// A node without queued work has nothing to start or to lose,
		// so only queued nodes advance, and the steal pass runs only
		// when one of them could be a victim.
		victim := false
		for _, ns := range d.nodes {
			if len(ns.queue) == 0 {
				continue
			}
			ns.advance(t, d.est)
			victim = victim || ns.victimAt(t, d.c.cfg.StealThreshold)
		}
		if victim {
			d.stealPass(t)
		}
		if err := d.routeOne(job, t); err != nil {
			return err
		}
	}
	return d.drain(ctx, lastArrival)
}

// routeOne filters and scores the nodes for one job in one walk and
// enqueues it on the winner. Filter 1, capacity: at least one surviving
// core. Filter 2, size affinity: a surviving core of the predicted best
// size; it never filters to zero, falling back to the capacity set. The
// scorers take the first strict minimum of their set, so ties go to the
// lowest index; round robin rotates over it by job index.
func (d *dispatch) routeOne(job core.Job, t uint64) error {
	a := d.app(job.AppID)
	scorer := d.c.cfg.Scorer
	rr := scorer == ScoreRoundRobin
	capN, affN := 0, 0
	capWin, affWin := -1, -1
	var capBest, affBest float64
	for i, ns := range d.nodes {
		ns.refresh(t)
		if ns.alive == 0 {
			continue
		}
		capN++
		affine := ns.sizeMask&a.wantBit != 0
		if affine {
			affN++
		} else if affN > 0 {
			continue // the affinity set is non-empty: capacity no longer ranks
		}
		if rr {
			continue
		}
		var s float64 // the node's score: lower wins
		switch scorer {
		case ScoreBalance:
			s = float64(ns.wait(t))
		case ScoreEnergy:
			s = a.energyOn(ns)
		default: // ScoreHybrid
			e := a.energyOn(ns)
			penalty := 1 + float64(ns.wait(t))/float64(a.est)
			s = e * penalty
		}
		if affine {
			if affWin < 0 || s < affBest {
				affWin, affBest = i, s
			}
		} else if capWin < 0 || s < capBest {
			capWin, capBest = i, s
		}
	}
	if capN == 0 {
		return fmt.Errorf("cluster: job %d: no node has a surviving core at cycle %d", job.Index, t)
	}
	relaxed := affN == 0
	cands, winner, best := affN, affWin, affBest
	if relaxed {
		cands, winner, best = capN, capWin, capBest
	}
	if rr {
		winner = d.nth(job.Index%cands, a.wantBit, relaxed)
	}

	ns := d.nodes[winner]
	ns.enqueue(job, a.est)
	if len(ns.queue) > ns.maxPending {
		ns.maxPending = len(ns.queue)
	}
	ns.advance(t, d.est)

	if tr := d.c.cfg.Trace; tr != nil {
		detail := fmt.Sprintf("scorer=%s cand=%d/%d", d.c.cfg.Scorer, cands, len(d.nodes))
		if relaxed {
			detail += " relaxed"
		}
		tr.Record(trace.Event{
			Cycle: t, Kind: trace.KindRoute, System: "cluster",
			Job: job.Index, App: job.AppID, Core: winner,
			SizeKB: a.want, EnergyNJ: best, Detail: detail,
		})
	}
	return nil
}

// nth returns the index of the k-th node (from 0) of the candidate set:
// nodes with a surviving core, and, unless relaxed, one whose size bit is
// in want. Every summary is current from routeOne's walk.
func (d *dispatch) nth(k int, want uint64, relaxed bool) int {
	for i, ns := range d.nodes {
		if ns.alive > 0 && (relaxed || ns.sizeMask&want != 0) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("cluster: candidate index out of range")
}

// stealPass moves queued work to drained nodes at cycle t: the thief is
// the lowest-indexed node with an empty backlog and an idle surviving
// core; the victim the node with the deepest backlog exceeding the steal
// threshold (nodes with no surviving cores are evacuated unconditionally).
// The thief takes the victim's backlog tail — the job that would wait
// longest — and starts it immediately, so a stolen job is never re-stolen
// and every pass terminates.
func (d *dispatch) stealPass(t uint64) {
	if d.c.cfg.DisableStealing {
		return
	}
	for {
		victim := -1
		for i, ns := range d.nodes {
			if !ns.victimAt(t, d.c.cfg.StealThreshold) {
				continue
			}
			if victim < 0 || len(ns.queue) > len(d.nodes[victim].queue) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		thief := -1
		for i, ns := range d.nodes {
			if i != victim && len(ns.queue) == 0 && ns.idleAt(t) {
				thief = i
				break
			}
		}
		if thief < 0 {
			return
		}
		vs, ts := d.nodes[victim], d.nodes[thief]
		exec := d.est(vs.queue[len(vs.queue)-1].AppID)
		job := vs.popTail(exec)
		vs.stolenOut++
		ts.stolenIn++
		d.steals++
		ts.enqueue(job, exec)
		ts.advance(t, d.est)
		if tr := d.c.cfg.Trace; tr != nil {
			tr.Record(trace.Event{
				Cycle: t, Kind: trace.KindSteal, System: "cluster",
				Job: job.Index, App: job.AppID, Core: thief, Start: uint64(victim),
				Detail: fmt.Sprintf("victim=%d depth=%d", victim, len(vs.queue)+1),
			})
		}
	}
}

// drain advances estimated time past the last arrival until every backlog
// empties, stealing at each core-free boundary, so late-run imbalances
// (and fully-dead nodes) still shed queued work to drained peers. It
// checks ctx at every step.
func (d *dispatch) drain(ctx context.Context, t uint64) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, ns := range d.nodes {
			ns.advance(t, d.est)
		}
		d.stealPass(t)
		pending := 0
		for _, ns := range d.nodes {
			pending += len(ns.queue)
		}
		if pending == 0 {
			return nil
		}
		// Jump to the next moment anything can change: the earliest
		// busy-until beyond t among cores that survive to that moment.
		next := uint64(unroutable)
		for _, ns := range d.nodes {
			for i, at := range ns.freeAt {
				if at > t && at < next && ns.aliveAt(i, at) {
					next = at
				}
			}
		}
		if next == unroutable {
			return fmt.Errorf("cluster: %d queued jobs unschedulable (no surviving cores)", pending)
		}
		t = next
	}
}
