package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"

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
// result row. Only request-shape errors (empty batch handled by the
// caller, a mixed explicit/implicit arrival set) fail the whole batch.
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

// batchPriority is the request's effective admission priority: the maximum
// of the request-level priority and every job's.
func batchPriority(base int, jobs []BatchJob) int {
	p := base
	for _, j := range jobs {
		if j.Priority > p {
			p = j.Priority
		}
	}
	return p
}

// characterizeBatch resolves every distinct variant through the serving
// tier — one lookup per variant, each hitting the warmest level available
// (memory, a coalesced in-flight compute, disk, or a fresh compute) — and
// assembles the batch characterization DB, re-identifying each record with
// its batch-local application ID.
func (s *Server) characterizeBatch(ctx context.Context, plan *batchPlan) (*hetsched.DB, BatchCharacterizationWire, error) {
	wire := BatchCharacterizationWire{UniqueVariants: len(plan.variants)}
	db := &hetsched.DB{Records: make([]characterize.Record, len(plan.variants))}
	for i, v := range plan.variants {
		if err := ctx.Err(); err != nil {
			return nil, wire, err
		}
		vdb, src, err := s.tier.Characterize([]characterize.Variant{v})
		if err != nil {
			return nil, wire, fmt.Errorf("characterize %s: %w", v.Kernel, err)
		}
		rec := vdb.Records[0]
		rec.ID = i
		db.Records[i] = rec
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
	// request row each simulator job came from.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return jobs[idx[a]].ArrivalCycle < jobs[idx[b]].ArrivalCycle
	})
	sorted := make([]hetsched.Job, n)
	simToReq := make([]int, n)
	for pos, k := range idx {
		sorted[pos] = jobs[k]
		sorted[pos].Index = pos
		simToReq[pos] = plan.valid[k]
	}
	return sorted, simToReq, nil
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
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if err := s.checkRun(req.System, nil, req.Utilization); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if len(req.Jobs) < 1 || len(req.Jobs) > s.cfg.MaxArrivals {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"batch of %d jobs out of range [1, %d]", len(req.Jobs), s.cfg.MaxArrivals)
		return
	}
	plan, err := planBatch(req.Jobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if !s.admit(w, batchPriority(req.Priority, req.Jobs), len(req.Jobs)) {
		return
	}
	s.serveJob(w, r, "batch", func(ctx context.Context) (any, error) {
		return s.runScheduleBatch(ctx, req, plan)
	})
}

// runScheduleBatch executes one batch on a worker: characterize the
// distinct variants through the serving tier, build the batch workload,
// run one simulation, project per-job placements.
func (s *Server) runScheduleBatch(ctx context.Context, req BatchScheduleRequest, plan *batchPlan) (any, error) {
	db, wire, err := s.characterizeBatch(ctx, plan)
	if err != nil {
		return nil, err
	}
	resp := BatchScheduleResponse{
		System:           req.System,
		Jobs:             len(req.Jobs),
		Scheduled:        len(plan.valid),
		Rejected:         len(req.Jobs) - len(plan.valid),
		Characterization: wire,
		Results:          plan.results,
	}
	if len(plan.valid) == 0 {
		return resp, nil
	}
	cores := len(core.DefaultSimConfig().CoreSizesKB)
	jobs, simToReq, err := batchJobs(req.Jobs, plan, db, req.Utilization, cores)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sim := hetsched.SimConfig{RecordSchedule: true}
	for _, j := range jobs {
		if j.Priority != 0 {
			sim.PriorityScheduling = true
			sim.Preemptive = req.Preemptive
			break
		}
	}
	m, err := s.system().RunOnDBContext(ctx, db, req.System, jobs, sim)
	if err != nil {
		return nil, err
	}
	if m.Predictor != nil {
		s.met.ObservePredictor(m.Predictor)
	}
	resp.System = m.System
	resp.Completed = m.Completed
	resp.MakespanCycles = m.Makespan
	resp.TurnaroundP50 = m.TurnaroundPercentile(50)
	resp.TurnaroundP95 = m.TurnaroundPercentile(95)
	resp.TurnaroundP99 = m.TurnaroundPercentile(99)
	resp.TotalEnergyNJ = m.TotalEnergy()
	fillPlacements(resp.Results, jobs, simToReq, m.Schedule)
	return resp, nil
}

// handleClusterScheduleBatch serves POST /v1/cluster/schedule/batch.
func (s *Server) handleClusterScheduleBatch(w http.ResponseWriter, r *http.Request) {
	req := BatchClusterScheduleRequest{
		System:      "proposed",
		Utilization: 0.9,
	}
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	nodes, scorer, err := s.clusterTarget(req.Nodes, req.Scorer)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if err := s.checkRun(req.System, nil, req.Utilization); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.StealThreshold < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "negative steal_threshold")
		return
	}
	if len(req.Jobs) < 1 || len(req.Jobs) > s.cfg.MaxArrivals {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"batch of %d jobs out of range [1, %d]", len(req.Jobs), s.cfg.MaxArrivals)
		return
	}
	plan, err := planBatch(req.Jobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if !s.admit(w, batchPriority(req.Priority, req.Jobs), len(req.Jobs)) {
		return
	}
	s.serveJob(w, r, "cluster_batch", func(ctx context.Context) (any, error) {
		return s.runClusterScheduleBatch(ctx, req, nodes, scorer, plan)
	})
}

// runClusterScheduleBatch executes one cluster batch on a worker:
// characterize through the serving tier, build the batch workload sized
// for the cluster's total core count, route and simulate.
func (s *Server) runClusterScheduleBatch(ctx context.Context, req BatchClusterScheduleRequest,
	nodes []hetsched.SystemSpec, scorer hetsched.ScorerKind, plan *batchPlan) (any, error) {
	db, wire, err := s.characterizeBatch(ctx, plan)
	if err != nil {
		return nil, err
	}
	resp := BatchClusterScheduleResponse{
		Scheduled:        len(plan.valid),
		Rejected:         len(req.Jobs) - len(plan.valid),
		Characterization: wire,
	}
	for i := range plan.results {
		if plan.results[i].Error != "" {
			resp.RejectedJobs = append(resp.RejectedJobs, plan.results[i])
		}
	}
	cores := 0
	for _, spec := range nodes {
		cores += spec.Cores()
	}
	if len(plan.valid) == 0 {
		resp.ClusterScheduleResponse = ClusterScheduleResponse{
			System:    req.System,
			Scorer:    scorer.String(),
			Nodes:     hetsched.FormatClusterSpec(nodes),
			NodeCount: len(nodes),
			Cores:     cores,
		}
		return resp, nil
	}
	jobs, _, err := batchJobs(req.Jobs, plan, db, req.Utilization, cores)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := hetsched.ClusterConfig{
		Nodes:           nodes,
		System:          req.System,
		Scorer:          scorer,
		StealThreshold:  req.StealThreshold,
		DisableStealing: req.DisableStealing,
	}
	res, err := s.system().RunClusterOnDBContext(ctx, db, cfg, jobs)
	if err != nil {
		return nil, err
	}
	s.met.ObserveCluster(res)
	resp.ClusterScheduleResponse = summarizeCluster(nodes, res)
	return resp, nil
}
