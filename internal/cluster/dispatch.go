package cluster

import (
	"cmp"
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

// settleEvery is how many arrivals route handles between settles while
// node simulations run beside it.
const settleEvery = 128

// settledAll is the watermark once every job is settled.
const settledAll = ^uint64(0)

// nodeState is the dispatcher's estimate of one node: a per-core
// busy-until horizon fed by the characterization DB's best-config cycle
// counts, plus the FIFO backlog of routed-but-not-yet-started jobs. It is
// deliberately cheap and state-independent of the node's real simulation —
// the global tier routes on estimates, the local policy decides placements.
// Queued jobs are positions in the routed workload.
type nodeState struct {
	sizes   []int    // effective per-core cache sizes
	deadAt  []uint64 // per-core permanent-death cycle (0 = never)
	freeAt  []uint64 // estimated busy-until per core
	queue   []int32
	backlog uint64 // summed estimates of queue, kept in step with it

	// The surviving cores change only at a permanent death, all known in
	// advance, so their summary is computed once per interval between
	// deaths: valid for t in [aliveFrom, aliveUntil). Size indices are
	// positions in cache.Sizes(), which every node spec is validated
	// against.
	alive                 int
	sizeMask              uint64  // bit k: a core of cache.Sizes()[k] survives
	ladder                []uint8 // ladder[r]: size index chosen for a prediction with r sizes at or below it (unused when alive is 0)
	aliveFrom, aliveUntil uint64

	load   load // as of refreshFree
	efCore int  // the earliest-free surviving core as of refreshFree, or -1

	maxPending          int
	stolenIn, stolenOut int
}

// aliveAt reports whether core i has not permanently died by cycle t.
func (ns *nodeState) aliveAt(i int, t uint64) bool {
	return ns.deadAt[i] == 0 || ns.deadAt[i] > t
}

// refresh brings the alive summary up to date for cycle t, recomputing it
// only when t leaves its interval.
func (ns *nodeState) refresh(t uint64) {
	if t < ns.aliveFrom || t >= ns.aliveUntil {
		ns.refreshAlive(t)
	}
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
}

// refreshFree rescans for the earliest-free surviving core and refreshes
// the node's load. The alive summary must hold t.
func (ns *nodeState) refreshFree(t uint64) {
	ns.load.ef, ns.efCore = unroutable, -1
	for i, at := range ns.freeAt {
		if at < ns.load.ef && ns.aliveAt(i, t) {
			ns.efCore, ns.load.ef = i, at
		}
	}
	ns.refreshSpread()
}

// refreshSpread refreshes the load's backlog spread, all that a change of
// the backlog alone moves.
func (ns *nodeState) refreshSpread() {
	ns.load.spread = 0
	if ns.alive > 0 {
		ns.load.spread = ns.backlog / uint64(ns.alive)
	}
}

// load is the part of a node's summary that every arrival reads.
type load struct {
	ef     uint64 // freeAt of the earliest-free surviving core, or unroutable
	spread uint64 // the backlog spread over the surviving cores
}

// idle reports whether some surviving core is free at t.
func (l load) idle(t uint64) bool { return l.ef <= t && l.ef != unroutable }

// wait estimates how long a job routed to the node at t would queue: the
// gap until a surviving core frees, plus the backlog spread over the
// surviving cores. The node must have a surviving core.
func (l load) wait(t uint64) uint64 { return max(l.ef, t) - t + l.spread }

// nodeSet is a set of node indices, bit i for node i.
type nodeSet [MaxNodes / 64]uint64

func (s *nodeSet) add(i int)    { s[i>>6] |= 1 << (i & 63) }
func (s *nodeSet) remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// next returns the smallest member at or above i, or -1 when there is
// none. Walking with next tolerates removing the member just visited.
func (s *nodeSet) next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// count returns the number of members.
func (s *nodeSet) count() int {
	n := 0
	for _, word := range s {
		n += bits.OnesCount64(word)
	}
	return n
}

// nth returns the k-th smallest member, from 0.
func (s *nodeSet) nth(k int) int {
	if k < 0 {
		panic("cluster: node set index out of range")
	}
	for w, word := range s {
		if n := bits.OnesCount64(word); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return w<<6 | bits.TrailingZeros64(word)
	}
	panic("cluster: node set index out of range")
}

// appInfo is the dispatcher's per-application summary, filled on the
// app's first route.
type appInfo struct {
	filled bool
	est    uint64    // best-config execution cycles, at least 1
	want   int       // predicted best cache size
	wantK  int       // want's index in cache.Sizes() (-1 off Table 1)
	rank   int       // how many cache.Sizes() are at or below want
	nj     []float64 // best characterized energy per cache.Sizes() index (0 if none)
}

// dispatch is one run's routing state. Its clock only moves forward.
type dispatch struct {
	c      *Cluster
	jobs   []core.Job // the workload; queues and the start log hold positions in it
	nodes  []*nodeState
	steals int

	// The final assignment: every started position in estimated start
	// order, and the node each one started on.
	started []int32
	owner   []int32

	// Settling (see settle): every position below settled is final and
	// laid out by node in buf[:settled]; batches and counts are settle's
	// reused scratch. route settles every settleEvery arrivals (0: only
	// once it ends), and publish, when set, receives every settle.
	buf         []core.Job
	settled     int
	batches     [][]core.Job
	counts      []int
	settleEvery int
	publish     func(until uint64, batches [][]core.Job)

	// queued holds the nodes with a backlog, kept in step with every
	// queue by changed.
	all, queued nodeSet

	// Every node's alive summary, and the alive and per-size node sets,
	// hold for every cycle before setsUntil: the next permanent death on
	// any node. Passing it rebuilds them and refreshes every load.
	alive     nodeSet
	bySize    []nodeSet // bySize[k]: nodes with a surviving core of cache.Sizes()[k]
	setsUntil uint64

	apps    []appInfo // indexed by app ID, dense over db.Records
	unknown appInfo   // every app ID outside the DB
}

func (c *Cluster) newDispatch(jobs []core.Job) *dispatch {
	nsizes := len(cache.Sizes())
	d := &dispatch{
		c:       c,
		jobs:    jobs,
		started: make([]int32, 0, len(jobs)),
		owner:   make([]int32, len(jobs)),
		buf:     make([]core.Job, len(jobs)),
		batches: make([][]core.Job, len(c.cfg.Nodes)),
		counts:  make([]int, len(c.cfg.Nodes)),
		nodes:   make([]*nodeState, len(c.cfg.Nodes)),
		bySize:  make([]nodeSet, nsizes),
		apps:    make([]appInfo, len(c.db.Records)),
		unknown: appInfo{est: 1, wantK: -1, nj: make([]float64, nsizes)},
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
		d.all.add(i)
	}
	return d
}

// setClock moves the dispatcher to cycle t. Once t reaches the next
// permanent death on any node, every node is refreshed and the node sets
// rebuilt.
func (d *dispatch) setClock(t uint64) {
	if t < d.setsUntil {
		return
	}
	d.alive, d.setsUntil = nodeSet{}, unroutable
	clear(d.bySize)
	for i, ns := range d.nodes {
		ns.refresh(t)
		d.setsUntil = min(d.setsUntil, ns.aliveUntil)
		d.changed(i, t) // a death may move the earliest-free core
		if ns.alive == 0 {
			continue
		}
		d.alive.add(i)
		for m := ns.sizeMask; m != 0; m &= m - 1 {
			d.bySize[bits.TrailingZeros64(m)].add(i)
		}
	}
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
	a.filled, a.est, a.want, a.wantK = true, 1, rec.BestSizeKB(), -1
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
			a.wantK = k
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
// order as the resilient fallback chain). The node's alive summary must be
// current at the routing cycle and have a surviving core.
func (a *appInfo) energyOn(ns *nodeState) float64 {
	return a.nj[ns.ladder[a.rank]]
}

// score is the node's score for the app under the configured scorer, given
// its wait: lower wins.
func (d *dispatch) score(a *appInfo, ns *nodeState, wait uint64) float64 {
	switch d.c.cfg.Scorer {
	case ScoreBalance:
		return float64(wait)
	case ScoreEnergy:
		return a.energyOn(ns)
	default: // ScoreHybrid
		e := a.energyOn(ns)
		penalty := 1 + float64(wait)/float64(a.est)
		return e * penalty
	}
}

// changed refreshes node i's load and its membership of the queued set
// after its horizon or its surviving cores moved at cycle t.
func (d *dispatch) changed(i int, t uint64) {
	d.nodes[i].refreshFree(t)
	d.queueMoved(i)
}

// queueMoved refreshes node i's spread and its membership of the queued
// set after its backlog alone moved.
func (d *dispatch) queueMoved(i int) {
	ns := d.nodes[i]
	ns.refreshSpread()
	if len(ns.queue) > 0 {
		d.queued.add(i)
	} else {
		d.queued.remove(i)
	}
}

// enqueue appends the job at position p, estimated at exec cycles, to node
// i's backlog.
func (d *dispatch) enqueue(i, p int, exec uint64) {
	ns := d.nodes[i]
	ns.queue = append(ns.queue, int32(p))
	ns.backlog += exec
	d.queueMoved(i)
}

// popTail removes node i's last queued job and returns its position.
func (d *dispatch) popTail(i int) int {
	ns := d.nodes[i]
	p := ns.queue[len(ns.queue)-1]
	ns.queue = ns.queue[:len(ns.queue)-1]
	ns.backlog -= d.est(d.jobs[p].AppID)
	d.queueMoved(i)
	return int(p)
}

// advance starts every job queued on node i that can begin by cycle t,
// each on the earliest-free surviving core, logging it as finally
// assigned there.
func (d *dispatch) advance(i int, t uint64) {
	ns := d.nodes[i]
	d.setClock(t)
	for len(ns.queue) > 0 && ns.load.idle(t) {
		job := &d.jobs[ns.queue[0]]
		exec := d.est(job.AppID)
		ns.backlog -= exec
		ns.freeAt[ns.efCore] = max(ns.load.ef, job.ArrivalCycle) + exec
		d.started = append(d.started, ns.queue[0])
		d.owner[ns.queue[0]] = int32(i)
		// Shift rather than reslice: the queue keeps its backing array, so
		// enqueue stops allocating once it has held the node's deepest backlog.
		ns.queue = ns.queue[:copy(ns.queue, ns.queue[1:])]
		d.changed(i, t)
	}
}

// route runs the full dispatch: filter/score each arrival in order,
// stealing at every arrival boundary, then drain the remaining backlogs.
// It settles every d.settleEvery arrivals and once more after the drain,
// and checks ctx every ctxCheckEvery arrivals and at every drain step.
func (d *dispatch) route(ctx context.Context) error {
	var lastArrival uint64
	for p := range d.jobs {
		if p%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if d.settleEvery > 0 && p%d.settleEvery == 0 && p > 0 {
			d.settle(p)
		}
		t := d.jobs[p].ArrivalCycle
		lastArrival = t
		// A node without queued work has nothing to start or to lose, so
		// only queued nodes advance.
		for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
			d.advance(i, t)
		}
		d.stealPass(t)
		if err := d.routeOne(p, t); err != nil {
			return err
		}
	}
	if err := d.drain(ctx, lastArrival); err != nil {
		return err
	}
	d.settle(len(d.jobs))
	return nil
}

// routeOne filters and scores the nodes for the job at position p and
// enqueues it on the winner. Filter 1, capacity: at least one surviving
// core. Filter 2, size affinity: a surviving core of the predicted best
// size; it never filters to zero, falling back to the capacity set. The
// scorers take the first strict minimum of their set, so ties go to the
// lowest index; round robin rotates over it by job index.
func (d *dispatch) routeOne(p int, t uint64) error {
	job := &d.jobs[p]
	a := d.app(job.AppID)
	d.setClock(t)
	cands, relaxed := &d.alive, true
	if a.wantK >= 0 && d.bySize[a.wantK] != (nodeSet{}) {
		cands, relaxed = &d.bySize[a.wantK], false
	}
	n := cands.count()
	if n == 0 {
		return fmt.Errorf("cluster: job %d: no node has a surviving core at cycle %d", job.Index, t)
	}
	var winner int
	var best float64
	if scorer := d.c.cfg.Scorer; scorer == ScoreRoundRobin {
		winner = cands.nth(job.Index % n)
	} else {
		winner, best = d.bestOf(cands, a, t, scorer == ScoreBalance || scorer == ScoreHybrid && !relaxed)
	}

	d.enqueue(winner, p, a.est)
	if ns := d.nodes[winner]; len(ns.queue) > ns.maxPending {
		ns.maxPending = len(ns.queue)
	}
	d.advance(winner, t)

	if tr := d.c.cfg.Trace; tr != nil {
		detail := fmt.Sprintf("scorer=%s cand=%d/%d", d.c.cfg.Scorer, n, len(d.nodes))
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

// bestOf returns the first strict minimum of the score over cands at t,
// and its score. The clock must be at t.
//
// byWait says the score is a non-decreasing function of the node's integer
// wait alone. That holds for the balance score, float64(wait), and for the
// hybrid score within the affinity set: there every node's energy is
// nj[wantK] (the ladder of a node whose wanted size survives picks that
// size), and e·(1 + w/est) with e ≥ 0 never decreases in w under IEEE
// rounding. Then the first node of least wait, i at w, is the winner
// whenever score(w+1) > score(w): every node before i waits longer and so
// scores at least score(w+1), and every node after it scores at least
// score(w). Otherwise two waits may round to one score, and every node is
// scored.
func (d *dispatch) bestOf(cands *nodeSet, a *appInfo, t uint64, byWait bool) (int, float64) {
	if byWait {
		i, w := d.leastWait(cands, t)
		ns := d.nodes[i]
		if s := d.score(a, ns, w); d.score(a, ns, w+1) > s {
			return i, s
		}
	}
	winner, best := -1, 0.0
	for i := cands.next(0); i >= 0; i = cands.next(i + 1) {
		ns := d.nodes[i]
		if s := d.score(a, ns, ns.load.wait(t)); winner < 0 || s < best {
			winner, best = i, s
		}
	}
	return winner, best
}

// leastWait returns the first node of the non-empty cands with the least
// wait at t, and that wait.
func (d *dispatch) leastWait(cands *nodeSet, t uint64) (int, uint64) {
	first, least := -1, uint64(0)
	for base, word := range cands {
		for ; word != 0; word &= word - 1 {
			i := base<<6 | bits.TrailingZeros64(word)
			if w := d.nodes[i].load.wait(t); first < 0 || w < least {
				if w == 0 {
					return i, 0 // nothing waits less
				}
				first, least = i, w
			}
		}
	}
	return first, least
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
	d.setClock(t)
	for {
		victim := -1
		for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
			ns := d.nodes[i]
			n := len(ns.queue)
			if (n > d.c.cfg.StealThreshold || ns.alive == 0) && (victim < 0 || n > len(d.nodes[victim].queue)) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		thief := d.thief(t)
		if thief < 0 {
			return
		}
		vs, ts := d.nodes[victim], d.nodes[thief]
		p := d.popTail(victim)
		vs.stolenOut++
		ts.stolenIn++
		d.steals++
		job := &d.jobs[p]
		d.enqueue(thief, p, d.est(job.AppID))
		d.advance(thief, t)
		if tr := d.c.cfg.Trace; tr != nil {
			tr.Record(trace.Event{
				Cycle: t, Kind: trace.KindSteal, System: "cluster",
				Job: job.Index, App: job.AppID, Core: thief, Start: uint64(victim),
				Detail: fmt.Sprintf("victim=%d depth=%d", victim, len(vs.queue)+1),
			})
		}
	}
}

// thief returns the lowest-indexed node with an empty backlog that is idle
// at t, or -1. The clock must be at t.
func (d *dispatch) thief(t uint64) int {
	for base, word := range d.all {
		for word &^= d.queued[base]; word != 0; word &= word - 1 {
			i := base<<6 | bits.TrailingZeros64(word)
			if d.nodes[i].load.idle(t) {
				return i
			}
		}
	}
	return -1
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
		for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
			d.advance(i, t)
		}
		d.stealPass(t)
		pending := 0
		for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
			pending += len(d.nodes[i].queue)
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

// settle lays out the jobs whose node became final since the last settle
// and publishes them; next is the position of the first unrouted job.
//
// A job's node is final once it starts: a queued job may still be stolen,
// a started one never moves. The watermark W is the lower of the next
// unrouted job's arrival and the oldest queued job's on any node. Every
// job arriving before W has started: each queue holds positions in route
// order, so its head is its oldest job, and later arrivals arrive no
// earlier than the next unrouted one. Every job yet to start therefore
// arrives at W or later, so a node's final jobs arriving before W are the
// next prefix of its share in arrival order. Each node's prefix is handed
// to publish sorted by (ArrivalCycle, Index), the order its simulator
// takes them in; once every job has started, W is settledAll.
func (d *dispatch) settle(next int) {
	m := next
	for i := d.queued.next(0); i >= 0; i = d.queued.next(i + 1) {
		m = min(m, int(d.nodes[i].queue[0]))
	}
	until, hi := settledAll, m
	if m < len(d.jobs) {
		until = d.jobs[m].ArrivalCycle
		for hi > d.settled && d.jobs[hi-1].ArrivalCycle == until {
			hi--
		}
	}
	// Lay the new jobs out by node: count, place each node's run, sort it.
	clear(d.counts)
	for p := d.settled; p < hi; p++ {
		d.counts[d.owner[p]]++
	}
	from := d.settled
	for i, n := range d.counts {
		d.batches[i] = d.buf[from : from : from+n]
		from += n
	}
	for p := d.settled; p < hi; p++ {
		i := d.owner[p]
		d.batches[i] = append(d.batches[i], d.jobs[p])
	}
	for _, b := range d.batches {
		slices.SortStableFunc(b, func(x, y core.Job) int {
			if c := cmp.Compare(x.ArrivalCycle, y.ArrivalCycle); c != 0 {
				return c
			}
			return cmp.Compare(x.Index, y.Index)
		})
	}
	d.settled = hi
	if d.publish != nil {
		d.publish(until, d.batches)
	}
}
