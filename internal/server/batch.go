package server

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
)

// The batch endpoints are the high-throughput serving path: one request
// carries an explicit job array, every distinct kernel variant in it is
// characterized exactly once through the serving tier (memory LRU →
// in-flight coalescing → disk cache → compute), and the whole set is
// scheduled in a single simulator pass. Per-job validation failures are
// isolated to their row — one bad kernel never fails the batch.

// batchPlan is a validated batch: the order-stable per-row results
// skeleton, the surviving rows, and the distinct kernel variants they
// reference in first-appearance order (a variant's position is its
// application ID in the batch characterization DB).
type batchPlan struct {
	results  []BatchJobResult
	valid    []int // request indices that passed validation
	variants []characterize.Variant
	appOf    []int // request index -> variant index; -1 for rejected rows
	explicit bool  // every job placed its own arrival_cycle
}

// planBatch validates every row, isolating per-row failures into their
// result row. Only request-shape errors (a mixed explicit/implicit arrival
// set; checkBatch bounds the batch size) fail the whole batch.
func planBatch(jobs []BatchJob) (*batchPlan, error) {
	p := &batchPlan{
		results: make([]BatchJobResult, len(jobs)),
		appOf:   make([]int, len(jobs)),
	}
	withArrival := 0
	for i := range jobs {
		if jobs[i].ArrivalCycle != nil {
			withArrival++
		}
	}
	if withArrival != 0 && withArrival != len(jobs) {
		return nil, fmt.Errorf("arrival_cycle must be set on every job or on none (%d of %d set)",
			withArrival, len(jobs))
	}
	p.explicit = withArrival == len(jobs)
	seen := make(map[characterize.Variant]int)
	for i, j := range jobs {
		res := &p.results[i]
		res.Index = i
		res.Kernel = j.Kernel
		p.appOf[i] = -1
		v, err := batchVariant(j)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		id, ok := seen[v]
		if !ok {
			id = len(p.variants)
			seen[v] = id
			p.variants = append(p.variants, v)
		}
		p.appOf[i] = id
		p.valid = append(p.valid, i)
	}
	return p, nil
}

// batchVariant validates one row and names its kernel variant. Zero
// parameters mean the canonical defaults (scale 1, 4 iterations, seed 1).
func batchVariant(j BatchJob) (characterize.Variant, error) {
	if j.Kernel == "" {
		return characterize.Variant{}, fmt.Errorf("missing field: kernel")
	}
	if _, err := hetsched.KernelByName(j.Kernel); err != nil {
		return characterize.Variant{}, err
	}
	if j.Priority < 0 {
		return characterize.Variant{}, fmt.Errorf("negative priority %d", j.Priority)
	}
	params := eembc.DefaultParams()
	if j.Scale != 0 {
		params.Scale = j.Scale
	}
	if j.Iterations != 0 {
		params.Iterations = j.Iterations
	}
	if j.DataSeed != 0 {
		params.Seed = j.DataSeed
	}
	if err := params.Validate(); err != nil {
		return characterize.Variant{}, err
	}
	return characterize.Variant{Kernel: j.Kernel, Params: params}, nil
}

// characterizeBatch resolves every distinct variant through the serving
// tier — one lookup per variant, each hitting the warmest level available
// (memory, a coalesced in-flight compute, disk, or a fresh compute) — and
// assembles the batch characterization DB, re-identifying each record with
// its batch-local application ID.
//
// The lookups run concurrently, at most GOMAXPROCS at once, so a batch's
// cold variants compute on every core; records and sources land by variant
// index, so the DB and the counters do not depend on completion order.
// ctx is checked before each launch; every launched lookup is waited for,
// and the error reported is the lowest-index one, as a serial loop would
// have met it.
func (s *Server) characterizeBatch(ctx context.Context, plan *batchPlan) (*hetsched.DB, BatchCharacterizationWire, error) {
	n := len(plan.variants)
	wire := BatchCharacterizationWire{UniqueVariants: n}
	db := &hetsched.DB{Records: make([]characterize.Record, n)}
	srcs := make([]characterize.Source, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, v := range plan.variants {
		sem <- struct{}{} // a running lookup always finishes and frees a slot
		if errs[i] = ctx.Err(); errs[i] != nil {
			break
		}
		wg.Add(1)
		go func(i int, v characterize.Variant) {
			defer func() { <-sem; wg.Done() }()
			vdb, src, err := s.tier.Characterize([]characterize.Variant{v})
			if err != nil {
				errs[i] = fmt.Errorf("characterize %s: %w", v.Kernel, err)
				return
			}
			db.Records[i] = vdb.Records[0]
			db.Records[i].ID = i
			srcs[i] = src
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, wire, err
		}
	}
	for _, src := range srcs {
		switch src {
		case characterize.SourceMemory:
			wire.Memory++
		case characterize.SourceCoalesced:
			wire.Coalesced++
		case characterize.SourceDisk:
			wire.Disk++
		default:
			wire.Computed++
		}
	}
	return db, wire, nil
}

// batchJobs materializes the surviving rows as simulator jobs over the
// batch DB. Implicit arrivals are spread deterministically — job k of n
// arrives at horizon·k/n, with the horizon sized for the requested
// utilization over the given core count — so identical requests produce
// identical timelines. The returned simToReq maps each simulator job index
// back to its request row.
func batchJobs(reqJobs []BatchJob, plan *batchPlan, db *hetsched.DB, utilization float64, cores int) ([]hetsched.Job, []int, error) {
	n := len(plan.valid)
	jobs := make([]hetsched.Job, n)
	for k, ri := range plan.valid {
		jobs[k] = hetsched.Job{
			Index:    k,
			AppID:    plan.appOf[ri],
			Priority: reqJobs[ri].Priority,
		}
		if plan.explicit {
			jobs[k].ArrivalCycle = *reqJobs[ri].ArrivalCycle
		}
	}
	if !plan.explicit {
		ids := make([]int, n)
		for k, ri := range plan.valid {
			ids[k] = plan.appOf[ri]
		}
		horizon, err := core.HorizonForUtilization(db, ids, n, cores, utilization)
		if err != nil {
			return nil, nil, badRequest(err)
		}
		for k := range jobs {
			jobs[k].ArrivalCycle = horizon * uint64(k) / uint64(n)
		}
	}
	// The simulator consumes arrivals in time order; sort stably so ties
	// keep request order, then assign sequence numbers and remember which
	// request row each simulator job came from (Index holds the job's
	// position in plan.valid until then).
	slices.SortStableFunc(jobs, func(a, b hetsched.Job) int {
		return cmp.Compare(a.ArrivalCycle, b.ArrivalCycle)
	})
	simToReq := make([]int, n)
	for pos := range jobs {
		simToReq[pos] = plan.valid[jobs[pos].Index]
		jobs[pos].Index = pos
	}
	return jobs, simToReq, nil
}

// fillPlacements projects the recorded execution timeline onto the per-row
// results: arrival, first start, final completion, the final interval's
// core and config, the interval count and whether any interval profiled.
func fillPlacements(results []BatchJobResult, jobs []hetsched.Job, simToReq []int, schedule []core.PlacementEvent) {
	for i := range jobs {
		results[simToReq[i]].ArrivalCycle = jobs[i].ArrivalCycle
	}
	for _, ev := range schedule {
		if ev.JobIndex < 0 || ev.JobIndex >= len(simToReq) {
			continue
		}
		res := &results[simToReq[ev.JobIndex]]
		if res.Executions == 0 || ev.Start < res.StartCycle {
			res.StartCycle = ev.Start
		}
		if ev.End >= res.CompletionCycle {
			res.CompletionCycle = ev.End
			res.Core = ev.CoreID
			res.Config = ev.Config.String()
		}
		res.Executions++
		if ev.Profiling {
			res.Profiled = true
		}
	}
	for i := range jobs {
		res := &results[simToReq[i]]
		if res.CompletionCycle > res.ArrivalCycle {
			res.TurnaroundCycles = res.CompletionCycle - res.ArrivalCycle
		}
	}
}

// handleScheduleBatch serves POST /v1/schedule/batch.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	req := BatchScheduleRequest{
		System:      "proposed",
		Utilization: 0.9,
	}
	s.serveSchedule(w, r, "batch", &req, func() (*scheduleRun, error) {
		if err := s.checkRun(req.System, nil, req.Utilization); err != nil {
			return nil, err
		}
		cfg := hetsched.ClusterConfig{Nodes: oneNode, System: req.System, Sim: hetsched.SimConfig{RecordSchedule: true}}
		run, err := s.checkBatch(cfg, req.Utilization, req.Priority, req.Jobs)
		if err != nil {
			return nil, err
		}
		run.cluster.Sim.Preemptive = req.Preemptive && run.cluster.Sim.PriorityScheduling
		run.respond = func(o runOutcome) any {
			node := o.node(req.System)
			if o.res != nil {
				fillPlacements(run.plan.results, o.jobs, o.simToReq, o.res.Nodes[0].Metrics.Schedule)
			}
			return BatchScheduleResponse{
				System:           node.System,
				Jobs:             len(req.Jobs),
				Scheduled:        len(run.plan.valid),
				Rejected:         len(req.Jobs) - len(run.plan.valid),
				Completed:        node.Completed,
				MakespanCycles:   node.MakespanCycles,
				TurnaroundP50:    node.TurnaroundP50,
				TurnaroundP95:    node.TurnaroundP95,
				TurnaroundP99:    node.TurnaroundP99,
				TotalEnergyNJ:    node.TotalEnergyNJ,
				Characterization: o.wire,
				Results:          run.plan.results,
			}
		}
		return run, nil
	})
}

// handleClusterScheduleBatch serves POST /v1/cluster/schedule/batch.
func (s *Server) handleClusterScheduleBatch(w http.ResponseWriter, r *http.Request) {
	req := BatchClusterScheduleRequest{
		System:      "proposed",
		Utilization: 0.9,
	}
	s.serveSchedule(w, r, "cluster_batch", &req, func() (*scheduleRun, error) {
		cfg, err := s.checkCluster(req.Nodes, req.Scorer, req.System, nil, req.Utilization,
			req.StealThreshold, req.DisableStealing)
		if err != nil {
			return nil, err
		}
		run, err := s.checkBatch(cfg, req.Utilization, req.Priority, req.Jobs)
		if err != nil {
			return nil, err
		}
		run.clustered = true
		run.respond = func(o runOutcome) any {
			resp := BatchClusterScheduleResponse{
				ClusterScheduleResponse: summarizeCluster(cfg, o),
				Scheduled:               len(run.plan.valid),
				Rejected:                len(req.Jobs) - len(run.plan.valid),
				Characterization:        o.wire,
			}
			for _, res := range run.plan.results {
				if res.Error != "" {
					resp.RejectedJobs = append(resp.RejectedJobs, res)
				}
			}
			return resp
		}
		return run, nil
	})
}

// checkBatch validates what both batch endpoints share — the batch size,
// every row, then the request-level priority — and returns a run of
// cluster drawing its workload from the batch plan, admitted at the
// highest priority the request or any row asserts. Any valid row with a
// non-zero priority arms priority scheduling, so the row priorities order
// the queue on either endpoint.
func (s *Server) checkBatch(cluster hetsched.ClusterConfig, utilization float64, priority int, rows []BatchJob) (*scheduleRun, error) {
	if len(rows) < 1 || len(rows) > s.cfg.MaxArrivals {
		return nil, fmt.Errorf("batch of %d jobs out of range [1, %d]", len(rows), s.cfg.MaxArrivals)
	}
	plan, err := planBatch(rows)
	if err != nil {
		return nil, err
	}
	if priority < 0 {
		return nil, errNegativePriority
	}
	for _, j := range rows {
		priority = max(priority, j.Priority)
	}
	for _, ri := range plan.valid {
		if rows[ri].Priority != 0 {
			cluster.Sim.PriorityScheduling = true
			break
		}
	}
	return &scheduleRun{
		priority: priority, cost: len(rows), cluster: cluster,
		rows: rows, plan: plan, utilization: utilization,
	}, nil
}
