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
// Node simulations then run in a bounded worker pool; results are stored by
// node index, so a fixed seed produces bit-identical placements and energy
// totals at any worker count — the same determinism contract as
// internal/sweep.
//
// Fault isolation mirrors real fleets: every node derives its own fault
// seed from the cluster plan via splitmix64, so node 3 crashing is
// independent of node 7, while scripted plans apply verbatim to every node
// (reproducible degradation drills). The dispatcher consults
// fault.PermanentDeaths — the pure timeline, not the stateful injector — so
// its surviving-core filter agrees exactly with what each node will suffer.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
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
	// Workers bounds the node-simulation pool (0 = GOMAXPROCS). The count
	// never changes results.
	Workers int
	// Faults is the cluster-level fault plan. Stochastic plans derive an
	// independent per-node seed (splitmix64 over the plan seed and node
	// index); scripted plans replay verbatim on every node.
	Faults fault.Plan
	// Trace records the dispatcher's route/steal decisions (KindRoute /
	// KindSteal, stamped system "cluster"). Node-local decisions are not
	// recorded — the cluster trace is the routing audit. Nil disables.
	Trace *trace.Recorder
	// RecordSchedule captures every node's execution timeline in its
	// Metrics.Schedule.
	RecordSchedule bool
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
// dispatcher and simulator state. Traced runs share the recorder, so do not
// run one traced Cluster concurrently with itself.
type Cluster struct {
	db   *characterize.DB
	em   *energy.Model
	pred core.Predictor
	cfg  Config

	system    string
	needsPred bool
	// effSizes is each node's effective per-core size list after the
	// system's core-size mapping ("base" flattens every core to 8 KB) —
	// the sizes the dispatcher's affinity filter must see.
	effSizes [][]int
	// deaths is each node's permanent-loss timeline under its derived
	// fault plan, sorted by cycle.
	deaths [][]fault.Event
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
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	_, needsPred, err := core.NewPolicy(cfg.System)
	if err != nil {
		return nil, err
	}
	if needsPred && pred == nil {
		return nil, fmt.Errorf("cluster: system %q requires a predictor", cfg.System)
	}
	c := &Cluster{db: db, em: em, pred: pred, cfg: cfg, system: cfg.System, needsPred: needsPred}
	for i, spec := range cfg.Nodes {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %v", i, err)
		}
		c.effSizes = append(c.effSizes, core.CoreSizesFor(cfg.System, spec.CoreSizesKB))
		c.deaths = append(c.deaths, nodeFaultPlan(cfg.Faults, i).PermanentDeaths(spec.Cores()))
	}
	return c, nil
}

// Config returns the validated configuration (defaults filled).
func (c *Cluster) Config() Config { return c.cfg }

// splitmix64 is the stateless seed mixer shared with internal/fault and
// internal/sweep (kept as a local copy; three lines of constants over an
// exported dependency).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nodeFaultPlan derives node's private fault plan: stochastic plans get an
// independent splitmix64-derived seed per node; scripted plans and the
// disabled zero plan pass through verbatim.
func nodeFaultPlan(base fault.Plan, node int) fault.Plan {
	if !base.Enabled() || len(base.Script) > 0 {
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

// Run schedules jobs across the cluster: the dispatcher routes (and
// steals), then every node simulates its share. Jobs must be sorted by
// arrival cycle (GenerateWorkload's order).
func (c *Cluster) Run(jobs []core.Job) (*Result, error) {
	return c.RunContext(context.Background(), jobs)
}

// RunContext is Run honoring cancellation at every node-simulation
// dispatch boundary.
func (c *Cluster) RunContext(ctx context.Context, jobs []core.Job) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ArrivalCycle < jobs[i-1].ArrivalCycle {
			return nil, fmt.Errorf("cluster: jobs not sorted by arrival (job %d)", i)
		}
	}
	d := c.newDispatch()
	if err := d.route(jobs); err != nil {
		return nil, err
	}

	res := &Result{System: c.system, Scorer: c.cfg.Scorer, Jobs: len(jobs), Steals: d.steals}
	res.Nodes = make([]NodeResult, len(c.cfg.Nodes))
	for i := range res.Nodes {
		ns := d.nodes[i]
		sort.Slice(ns.jobs, func(a, b int) bool {
			if ns.jobs[a].ArrivalCycle != ns.jobs[b].ArrivalCycle {
				return ns.jobs[a].ArrivalCycle < ns.jobs[b].ArrivalCycle
			}
			return ns.jobs[a].Index < ns.jobs[b].Index
		})
		res.Nodes[i] = NodeResult{
			Node: i, Spec: c.cfg.Nodes[i], JobsRouted: len(ns.jobs),
			StolenIn: ns.stolenIn, StolenOut: ns.stolenOut, MaxPending: ns.maxPending,
			Metrics: core.Metrics{System: c.system},
		}
	}

	// Simulate every non-empty node in a bounded pool. Results land in
	// their node's slot, so worker count never changes the output.
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(res.Nodes) {
		workers = len(res.Nodes)
	}
	errs := make([]error, len(res.Nodes))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				m, err := c.runNode(ctx, i, d.nodes[i].jobs)
				res.Nodes[i].Metrics, errs[i] = m, err
			}
		}()
	}
	for i := range res.Nodes {
		if len(d.nodes[i].jobs) > 0 {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
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

// runNode simulates one node over its routed share of the workload.
func (c *Cluster) runNode(ctx context.Context, node int, jobs []core.Job) (core.Metrics, error) {
	pol, needsPred, err := core.NewPolicy(c.system)
	if err != nil {
		return core.Metrics{}, err
	}
	var pred core.Predictor
	if needsPred {
		pred = c.pred
	}
	sim := c.cfg.Nodes[node].SimConfig()
	sim.CoreSizesKB = core.CoreSizesFor(c.system, sim.CoreSizesKB)
	sim.RecordSchedule = c.cfg.RecordSchedule
	sim.Faults = nodeFaultPlan(c.cfg.Faults, node)
	s, err := core.NewSimulator(c.db, c.em, pol, pred, sim)
	if err != nil {
		return core.Metrics{}, err
	}
	return s.RunContext(ctx, jobs)
}
