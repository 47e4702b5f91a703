// Package cluster is the two-level scheduler: N simulated heterogeneous
// multicore nodes behind one dispatcher. Each Node wraps the single-machine
// discrete-event simulator of internal/core — its own ready queue, policy,
// predictor and fault plan, producing its own Metrics — while the Cluster
// routes every arriving job through a filter/score pipeline (capacity and
// size affinity under the node's fault timeline as filters, then a
// pluggable ScorerKind over the survivors) and steals queued work back for
// nodes that drain.
//
// The dispatcher is the cheap global tier: it routes on estimates (a
// per-core busy-until horizon and the characterization DB's best-config
// cycle counts), never on simulation state, so routing is a single-threaded
// pure function of (workload, cluster config). The per-node policies remain
// the paper's systems, making the expensive placement decisions locally.
// Node simulations run in a bounded worker pool beside the route pass: a
// job's node is final once the dispatcher starts it, so each node's
// simulator is fed its settled jobs while routing goes on, and advances
// only through events no later routing can change (see settle). Results
// are stored by node index, so a fixed seed produces bit-identical
// placements and energy totals at any worker count — the same determinism
// contract as internal/sweep.
//
// A one-node cluster skips the dispatcher and keeps the fault plan's seed:
// it is the bare simulator, events and all. On more nodes, fault isolation
// mirrors real fleets: every node derives its own fault seed from the
// cluster plan via splitmix64, so node 3 crashing is independent of node 7,
// while scripted plans apply verbatim to every node (reproducible
// degradation drills). The dispatcher consults
// fault.PermanentDeaths — the pure timeline, not the stateful injector — so
// its surviving-core filter agrees exactly with what each node will suffer.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/trace"
)

// DefaultStealThreshold is the backlog a victim must exceed before an idle
// node steals from it: with threshold 1 a steal always leaves the victim at
// least one queued job, so stealing never starves the node it helps.
const DefaultStealThreshold = 1

// Config shapes a cluster.
type Config struct {
	// Nodes lists each node's shape. At least one; at most MaxNodes.
	Nodes []core.SystemSpec
	// System names the per-node scheduling policy (default "proposed");
	// every node runs the same system, the cluster analogue of the paper's
	// per-system comparisons.
	System string
	// Scorer ranks filter survivors (default ScoreHybrid).
	Scorer ScorerKind
	// StealThreshold is the victim backlog above which idle nodes steal
	// (0 = DefaultStealThreshold). Nodes with no surviving cores are
	// always evacuated regardless of threshold.
	StealThreshold int
	// DisableStealing turns cross-node work stealing off (ablation).
	DisableStealing bool
	// Workers bounds the node-simulation pool (0 = GOMAXPROCS): w-1
	// workers simulate nodes while the route pass runs, and all w, the
	// routing goroutine included, finish them afterwards. With 1, the
	// route pass runs first and the nodes then simulate one after another
	// in node order. The count never changes results.
	Workers int
	// Sim is the node template every node copies. The node specs own
	// CoreSizesKB, CoreFreqs, ReconfigCycles and ProfilingCycles, and Trace
	// below owns Trace: the template leaves them unset. On more than one
	// node a stochastic fault plan derives an independent seed per node
	// (see nodeFaults); a scripted plan replays verbatim on every node.
	Sim core.SimConfig
	// Trace records the dispatcher's route/steal decisions (KindRoute /
	// KindSteal, stamped system "cluster"), then every node's own
	// simulation events in node order, each tagged with its Node. Nil
	// disables.
	Trace *trace.Recorder
}

// NodeResult is one node's share of a cluster run.
type NodeResult struct {
	// Node is the node index.
	Node int
	// Spec is the node's declared shape.
	Spec core.SystemSpec
	// JobsRouted counts the jobs the node finally simulated (after
	// stealing).
	JobsRouted int
	// StolenIn and StolenOut count work-stealing transfers.
	StolenIn, StolenOut int
	// MaxPending is the deepest the dispatcher's estimate of this node's
	// backlog ever got.
	MaxPending int
	// Metrics is the node's full simulation result (zero except System
	// when no jobs were routed here).
	Metrics core.Metrics
}

// Result aggregates one cluster run.
type Result struct {
	// System and Scorer echo the configuration.
	System string
	Scorer ScorerKind
	// Jobs and Completed count the whole workload.
	Jobs, Completed int
	// Steals counts cross-node transfers.
	Steals int
	// Makespan is the cluster-wide last completion (max over nodes; all
	// nodes share the global arrival clock).
	Makespan uint64
	// TurnaroundCycles sums per-job turnaround over every node.
	TurnaroundCycles uint64
	// Energy components summed over nodes, in nanojoules.
	IdleEnergyNJ, DynamicEnergyNJ, StaticEnergyNJ, CoreEnergyNJ, ProfilingEnergyNJ float64
	// Nodes holds the per-node results in node order.
	Nodes []NodeResult
}

// TotalEnergyNJ sums every component.
func (r *Result) TotalEnergyNJ() float64 {
	return r.IdleEnergyNJ + r.DynamicEnergyNJ + r.StaticEnergyNJ + r.CoreEnergyNJ + r.ProfilingEnergyNJ
}

// Cores reports the cluster's total core count.
func (r *Result) Cores() int {
	n := 0
	for _, nr := range r.Nodes {
		n += nr.Spec.Cores()
	}
	return n
}

// TurnaroundPercentile returns the p-th percentile of per-job turnaround
// across every node (nearest-rank; 0 if nothing completed).
func (r *Result) TurnaroundPercentile(p float64) uint64 {
	var all []uint64
	for _, nr := range r.Nodes {
		all = append(all, nr.Metrics.Turnarounds...)
	}
	m := core.Metrics{Turnarounds: all}
	return m.TurnaroundPercentile(p)
}

// Cluster runs one cluster configuration over explicit workloads. It is
// immutable after New and safe for sequential reuse; each Run builds fresh
// dispatcher and simulator state. Traced runs share the recorder (nodes
// record into Forks merged after the pool), so do not run one traced
// Cluster concurrently with itself.
type Cluster struct {
	db   *characterize.DB
	em   *energy.Model
	pred core.Predictor
	cfg  Config

	needsPred bool
}

// New validates and assembles a cluster.
func New(db *characterize.DB, em *energy.Model, pred core.Predictor, cfg Config) (*Cluster, error) {
	if db == nil || len(db.Records) == 0 {
		return nil, fmt.Errorf("cluster: empty characterization DB")
	}
	if em == nil {
		return nil, fmt.Errorf("cluster: nil energy model")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if len(cfg.Nodes) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes, max %d", len(cfg.Nodes), MaxNodes)
	}
	if cfg.System == "" {
		cfg.System = "proposed"
	}
	if cfg.Scorer < 0 || cfg.Scorer >= scorerCount {
		return nil, fmt.Errorf("cluster: unknown scorer kind %d", int(cfg.Scorer))
	}
	if cfg.StealThreshold < 0 {
		return nil, fmt.Errorf("cluster: negative steal threshold %d", cfg.StealThreshold)
	}
	if cfg.StealThreshold == 0 {
		cfg.StealThreshold = DefaultStealThreshold
	}
	if sim := cfg.Sim; len(sim.CoreSizesKB) > 0 || len(sim.CoreFreqs) > 0 || sim.ReconfigCycles != 0 ||
		sim.ProfilingCycles != 0 || sim.Trace != nil {
		return nil, fmt.Errorf("cluster: the Sim template sets a field the node specs or Config.Trace own")
	}
	if err := cfg.Sim.Faults.Validate(); err != nil {
		return nil, err
	}
	_, needsPred, err := core.NewPolicy(cfg.System)
	if err != nil {
		return nil, err
	}
	if needsPred && pred == nil {
		return nil, fmt.Errorf("cluster: system %q requires a predictor", cfg.System)
	}
	c := &Cluster{db: db, em: em, pred: pred, cfg: cfg, needsPred: needsPred}
	for i, spec := range cfg.Nodes {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %v", i, err)
		}
	}
	return c, nil
}

// splitmix64 is the stateless seed mixer shared with internal/fault and
// internal/sweep (kept as a local copy; three lines of constants over an
// exported dependency).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nodeFaults derives node's private fault plan: on a multi-node cluster a
// stochastic plan gets an independent splitmix64-derived seed per node; a
// scripted plan, the disabled zero plan and a one-node cluster's plan pass
// through verbatim.
func (c *Cluster) nodeFaults(node int) fault.Plan {
	base := c.cfg.Sim.Faults
	if len(c.cfg.Nodes) == 1 || !base.Enabled() || len(base.Script) > 0 {
		return base
	}
	seed := base.Seed
	if seed == 0 {
		seed = 1
	}
	p := base
	p.Seed = int64(splitmix64(uint64(seed)*31 + uint64(node) + 1))
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// RunContext schedules jobs across the cluster: the dispatcher routes (and
// steals) while the nodes simulate the jobs it has settled. Jobs must be
// sorted by arrival cycle (GenerateWorkload's order). It honors
// cancellation while routing (every 256 arrivals and every drain step) and
// at every node-simulation event.
func (c *Cluster) RunContext(ctx context.Context, jobs []core.Job) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ArrivalCycle < jobs[i-1].ArrivalCycle {
			return nil, fmt.Errorf("cluster: jobs not sorted by arrival (job %d)", i)
		}
	}
	res := &Result{System: c.cfg.System, Scorer: c.cfg.Scorer, Jobs: len(jobs), Nodes: make([]NodeResult, len(c.cfg.Nodes))}
	for i := range res.Nodes {
		res.Nodes[i] = NodeResult{Node: i, Spec: c.cfg.Nodes[i], Metrics: core.Metrics{System: c.cfg.System}}
	}
	var err error
	if len(res.Nodes) == 1 {
		err = c.runOne(ctx, jobs, &res.Nodes[0])
	} else {
		err = c.runMany(ctx, jobs, res)
	}
	if err != nil {
		return nil, err
	}

	for i := range res.Nodes {
		m := &res.Nodes[i].Metrics
		res.Completed += m.Completed
		if m.Makespan > res.Makespan {
			res.Makespan = m.Makespan
		}
		res.TurnaroundCycles += m.TurnaroundCycles
		res.IdleEnergyNJ += m.IdleEnergy
		res.DynamicEnergyNJ += m.DynamicEnergy
		res.StaticEnergyNJ += m.StaticEnergy
		res.CoreEnergyNJ += m.CoreEnergy
		res.ProfilingEnergyNJ += m.ProfilingEnergy
	}
	return res, nil
}

// runOne runs a one-node cluster: no dispatch, the node simulates the
// workload exactly as given, which makes it the bare simulator.
func (c *Cluster) runOne(ctx context.Context, jobs []core.Job, nr *NodeResult) error {
	var rec *trace.Recorder
	if c.cfg.Trace != nil {
		rec = c.cfg.Trace.Fork()
	}
	sim, err := c.newNodeSim(0, rec)
	if err == nil {
		nr.Metrics, err = sim.RunContext(ctx, jobs)
	}
	if err != nil {
		return fmt.Errorf("cluster: node 0: %w", err)
	}
	nr.JobsRouted = len(jobs)
	c.cfg.Trace.Merge(rec, 0)
	return nil
}

// runMany routes jobs over the nodes while a pool simulates them. With w
// workers (Config.Workers), w-1 of them advance nodes during the route
// pass and the routing goroutine joins them once it ends, so one worker
// routes first and then simulates the nodes in order. Results land in
// their node's slot, so the worker count never changes the output; the
// error reported is the route pass's, else the lowest-indexed node's.
func (c *Cluster) runMany(ctx context.Context, jobs []core.Job, res *Result) error {
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(res.Nodes))
	p := c.newPool(ctx)
	d := c.newDispatch(jobs)
	d.publish = p.publish
	if workers > 1 {
		d.settleEvery = settleEvery
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	// However the run ends, a failed or panicking route pass included
	// (the daemon recovers panics), no worker outlives it.
	defer func() {
		p.halt()
		wg.Wait()
	}()
	if err := d.route(ctx); err != nil {
		return err
	}
	p.work()
	wg.Wait()
	for i := range p.runs {
		if err := p.runs[i].err; err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	res.Steals = d.steals
	for i, ns := range d.nodes {
		nr, run := &res.Nodes[i], &p.runs[i]
		nr.StolenIn, nr.StolenOut, nr.MaxPending = ns.stolenIn, ns.stolenOut, ns.maxPending
		if run.sim != nil {
			nr.Metrics = run.sim.Metrics()
			nr.JobsRouted = nr.Metrics.Jobs
		}
		c.cfg.Trace.Merge(run.rec, i)
	}
	return nil
}

// newNodeSim builds node's simulator, recording into rec (nil when
// untraced).
func (c *Cluster) newNodeSim(node int, rec *trace.Recorder) (*core.Simulator, error) {
	pol, needsPred, err := core.NewPolicy(c.cfg.System)
	if err != nil {
		return nil, err
	}
	var pred core.Predictor
	if needsPred {
		pred = c.pred
	}
	spec := c.cfg.Nodes[node].SimConfig()
	sim := c.cfg.Sim
	sim.CoreSizesKB = core.CoreSizesFor(c.cfg.System, spec.CoreSizesKB)
	sim.ReconfigCycles, sim.ProfilingCycles = spec.ReconfigCycles, spec.ProfilingCycles
	sim.Faults = c.nodeFaults(node)
	sim.Trace = rec
	return core.NewSimulator(c.db, c.em, pol, pred, sim)
}
