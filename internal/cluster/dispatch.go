package cluster

import (
	"fmt"

	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// unroutable is the wait estimate of a node with no surviving cores.
const unroutable = ^uint64(0)

// nodeState is the dispatcher's estimate of one node: a per-core
// busy-until horizon fed by the characterization DB's best-config cycle
// counts, plus the FIFO backlog of routed-but-not-yet-started jobs. It is
// deliberately cheap and state-independent of the node's real simulation —
// the global tier routes on estimates, the local policy decides placements.
type nodeState struct {
	sizes  []int    // effective per-core cache sizes
	deadAt []uint64 // per-core permanent-death cycle (0 = never)
	freeAt []uint64 // estimated busy-until per core
	queue  []core.Job
	jobs   []core.Job // final assignment, in estimated start order

	maxPending          int
	stolenIn, stolenOut int
}

// aliveAt reports whether core i has not permanently died by cycle t.
func (ns *nodeState) aliveAt(i int, t uint64) bool {
	return ns.deadAt[i] == 0 || ns.deadAt[i] > t
}

// earliestFree returns the smallest busy-until among cores alive at t
// (unroutable when every core is dead).
func (ns *nodeState) earliestFree(t uint64) uint64 {
	min := uint64(unroutable)
	for i := range ns.freeAt {
		if ns.aliveAt(i, t) && ns.freeAt[i] < min {
			min = ns.freeAt[i]
		}
	}
	return min
}

// idleAt reports whether some alive core is free at t.
func (ns *nodeState) idleAt(t uint64) bool {
	ef := ns.earliestFree(t)
	return ef != unroutable && ef <= t
}

// hasAliveSize reports whether a core of the given size survives at t.
func (ns *nodeState) hasAliveSize(sizeKB int, t uint64) bool {
	for i, s := range ns.sizes {
		if s == sizeKB && ns.aliveAt(i, t) {
			return true
		}
	}
	return false
}

// aliveSizeClasses returns the distinct surviving sizes at t, ascending.
func (ns *nodeState) aliveSizeClasses(t uint64) []int {
	var out []int
	for i, s := range ns.sizes {
		if !ns.aliveAt(i, t) {
			continue
		}
		dup := false
		for _, have := range out {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	// Insertion sort: the class count is tiny (≤ len(cache.Sizes())).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// start begins the queue head on the earliest-free surviving core,
// recording the job as finally assigned. Caller guarantees idleAt(t).
func (ns *nodeState) start(t uint64, est func(app int) uint64) {
	job := ns.queue[0]
	ns.queue = ns.queue[1:]
	best := -1
	for i := range ns.freeAt {
		if !ns.aliveAt(i, t) {
			continue
		}
		if best < 0 || ns.freeAt[i] < ns.freeAt[best] {
			best = i
		}
	}
	at := ns.freeAt[best]
	if job.ArrivalCycle > at {
		at = job.ArrivalCycle
	}
	ns.freeAt[best] = at + est(job.AppID)
	ns.jobs = append(ns.jobs, job)
}

// advance starts every queued job that can begin by cycle t.
func (ns *nodeState) advance(t uint64, est func(app int) uint64) {
	for len(ns.queue) > 0 && ns.idleAt(t) {
		ns.start(t, est)
	}
}

// dispatch is one run's routing state.
type dispatch struct {
	c      *Cluster
	nodes  []*nodeState
	steals int

	estCycles map[int]uint64 // per-app best-config execution estimate
	predSize  map[int]int    // per-app predicted best size
	sizeNJ    map[[2]int]float64
}

func (c *Cluster) newDispatch() *dispatch {
	d := &dispatch{
		c:         c,
		estCycles: map[int]uint64{},
		predSize:  map[int]int{},
		sizeNJ:    map[[2]int]float64{},
	}
	for i, spec := range c.cfg.Nodes {
		// The dispatcher sees each node's effective core sizes ("base"
		// flattens every core to 8 KB) and its permanent-loss timeline.
		ns := &nodeState{
			sizes:  core.CoreSizesFor(c.cfg.System, spec.CoreSizesKB),
			deadAt: make([]uint64, spec.Cores()),
			freeAt: make([]uint64, spec.Cores()),
		}
		for _, ev := range c.nodeFaults(i).PermanentDeaths(spec.Cores()) {
			if ev.Core >= 0 && ev.Core < len(ns.deadAt) {
				ns.deadAt[ev.Core] = ev.Cycle
			}
		}
		d.nodes = append(d.nodes, ns)
	}
	return d
}

// est returns the job's estimated execution cycles (its best-configuration
// cycle count; at least 1 so the estimate clock always advances).
func (d *dispatch) est(app int) uint64 {
	if v, ok := d.estCycles[app]; ok {
		return v
	}
	v := uint64(1)
	if rec, err := d.c.db.Record(app); err == nil && rec.BestConfig().Cycles > 0 {
		v = rec.BestConfig().Cycles
	}
	d.estCycles[app] = v
	return v
}

// predicted returns the app's predicted best cache size, memoized: the
// cluster's predictor on the characterized (clean) features, falling back
// to the oracle best size for predictor-free systems.
func (d *dispatch) predicted(app int) int {
	if v, ok := d.predSize[app]; ok {
		return v
	}
	rec, err := d.c.db.Record(app)
	if err != nil {
		d.predSize[app] = 0
		return 0
	}
	size := rec.BestSizeKB()
	if d.c.needsPred && d.c.pred != nil {
		if p, err := d.c.pred.PredictSizeKB(rec.Features); err == nil {
			size = p
		}
	}
	d.predSize[app] = size
	return size
}

// energyOn estimates the job's execution energy on a node at t: the best
// characterized energy at the node's closest surviving size to the
// predicted best (the ladder walks down, then up — the same preference
// order as the resilient fallback chain).
func (d *dispatch) energyOn(ns *nodeState, app int, t uint64) float64 {
	want := d.predicted(app)
	classes := ns.aliveSizeClasses(t)
	if len(classes) == 0 {
		return 0
	}
	chosen := -1
	for _, s := range classes { // ascending: ends at largest class <= want
		if s <= want {
			chosen = s
		}
	}
	if chosen < 0 {
		chosen = classes[0] // smallest class above the prediction
	}
	key := [2]int{app, chosen}
	if v, ok := d.sizeNJ[key]; ok {
		return v
	}
	v := 0.0
	if rec, err := d.c.db.Record(app); err == nil {
		if cr, err := rec.BestConfigForSize(chosen); err == nil {
			v = cr.Energy.Total
		}
	}
	d.sizeNJ[key] = v
	return v
}

// wait estimates how long a job routed to the node at t would queue: the
// gap until a surviving core frees, plus the backlog spread over the
// surviving cores.
func (ns *nodeState) wait(t uint64, est func(app int) uint64) uint64 {
	alive := 0
	for i := range ns.freeAt {
		if ns.aliveAt(i, t) {
			alive++
		}
	}
	if alive == 0 {
		return unroutable
	}
	w := uint64(0)
	if ef := ns.earliestFree(t); ef > t {
		w = ef - t
	}
	var backlog uint64
	for _, j := range ns.queue {
		backlog += est(j.AppID)
	}
	return w + backlog/uint64(alive)
}

// score ranks one candidate node (lower wins).
func (d *dispatch) score(ns *nodeState, job core.Job, t uint64) float64 {
	switch d.c.cfg.Scorer {
	case ScoreBalance:
		return float64(ns.wait(t, d.est))
	case ScoreEnergy:
		return d.energyOn(ns, job.AppID, t)
	default: // ScoreHybrid
		e := d.energyOn(ns, job.AppID, t)
		w := ns.wait(t, d.est)
		exec := d.est(job.AppID)
		penalty := 1 + float64(w)/float64(exec)
		return e * penalty
	}
}

// route runs the full dispatch: filter/score each arrival in order,
// stealing at every arrival boundary, then drain the remaining backlogs.
func (d *dispatch) route(jobs []core.Job) error {
	var lastArrival uint64
	for _, job := range jobs {
		t := job.ArrivalCycle
		lastArrival = t
		for _, ns := range d.nodes {
			ns.advance(t, d.est)
		}
		d.stealPass(t)
		if err := d.routeOne(job, t); err != nil {
			return err
		}
	}
	return d.drain(lastArrival)
}

// routeOne filters and scores the nodes for one job and enqueues it on the
// winner.
func (d *dispatch) routeOne(job core.Job, t uint64) error {
	// Filter 1: capacity — at least one surviving core.
	var cands []int
	for i, ns := range d.nodes {
		if ns.earliestFree(t) != unroutable {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("cluster: job %d: no node has a surviving core at cycle %d", job.Index, t)
	}
	// Filter 2: size affinity — a surviving core of the predicted best
	// size. Never filter to zero: fall back to the capacity set.
	want := d.predicted(job.AppID)
	relaxed := false
	var affine []int
	for _, i := range cands {
		if d.nodes[i].hasAliveSize(want, t) {
			affine = append(affine, i)
		}
	}
	if len(affine) > 0 {
		cands = affine
	} else {
		relaxed = true
	}

	var winner int
	var best float64
	if d.c.cfg.Scorer == ScoreRoundRobin {
		winner = cands[job.Index%len(cands)]
	} else {
		winner = cands[0]
		best = d.score(d.nodes[winner], job, t)
		for _, i := range cands[1:] {
			if s := d.score(d.nodes[i], job, t); s < best {
				winner, best = i, s
			}
		}
	}

	ns := d.nodes[winner]
	ns.queue = append(ns.queue, job)
	if len(ns.queue) > ns.maxPending {
		ns.maxPending = len(ns.queue)
	}
	ns.advance(t, d.est)

	if tr := d.c.cfg.Trace; tr != nil {
		detail := fmt.Sprintf("scorer=%s cand=%d/%d", d.c.cfg.Scorer, len(cands), len(d.nodes))
		if relaxed {
			detail += " relaxed"
		}
		tr.Record(trace.Event{
			Cycle: t, Kind: trace.KindRoute, System: "cluster",
			Job: job.Index, App: job.AppID, Core: winner,
			SizeKB: want, EnergyNJ: best, Detail: detail,
		})
	}
	return nil
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
			if len(ns.queue) == 0 {
				continue
			}
			evacuate := ns.earliestFree(t) == unroutable
			if !evacuate && len(ns.queue) <= d.c.cfg.StealThreshold {
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
		job := vs.queue[len(vs.queue)-1]
		vs.queue = vs.queue[:len(vs.queue)-1]
		vs.stolenOut++
		ts.stolenIn++
		d.steals++
		ts.queue = append(ts.queue, job)
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
// (and fully-dead nodes) still shed queued work to drained peers.
func (d *dispatch) drain(t uint64) error {
	for {
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
