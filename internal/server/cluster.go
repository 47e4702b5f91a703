package server

import (
	"context"
	"fmt"
	"net/http"

	"hetsched"
)

// handleClusterSchedule serves POST /v1/cluster/schedule: one workload
// routed across a multi-node cluster by the two-level dispatcher, each
// node simulated by the named per-node system. ?trace=1 inlines the
// dispatcher's route/steal audit into the response.
func (s *Server) handleClusterSchedule(w http.ResponseWriter, r *http.Request) {
	req := ClusterScheduleRequest{
		System:      "proposed",
		Arrivals:    500,
		Utilization: 0.9,
		Seed:        1,
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
	if err := s.checkRun(req.System, &req.Arrivals, req.Utilization); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.StealThreshold < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"negative steal_threshold")
		return
	}
	if req.Faults != nil {
		if err := req.Faults.plan().Validate(); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "faults: %s", err)
			return
		}
	}
	for _, k := range req.Kernels {
		if _, err := hetsched.KernelByName(k); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
			return
		}
	}
	if req.Priority < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "negative priority")
		return
	}
	traced, err := traceQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if !s.admit(w, req.Priority, req.Arrivals) {
		return
	}
	s.serveJob(w, r, "cluster", func(ctx context.Context) (any, error) {
		return s.runClusterSchedule(ctx, req, nodes, scorer, traced)
	})
}

// runClusterSchedule executes one cluster job on a worker: generate the
// cluster-sized workload, route and simulate, summarize, feed the
// counters.
func (s *Server) runClusterSchedule(ctx context.Context, req ClusterScheduleRequest,
	nodes []hetsched.SystemSpec, scorer hetsched.ScorerKind, traced bool) (any, error) {
	sys := s.system() // one snapshot: a concurrent hot-swap never splits this run
	jobs, err := sys.ClusterWorkload(nodes, req.Kernels, req.Arrivals, req.Utilization, req.Seed)
	if err != nil {
		return nil, badRequest(err)
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
	if req.Faults != nil {
		cfg.Faults = req.Faults.plan()
	}
	cfg.Trace = inlineRecorder(traced)
	res, err := sys.RunClusterContext(ctx, cfg, jobs)
	if err != nil {
		return nil, err
	}
	s.met.ObserveCluster(res)
	resp := summarizeCluster(nodes, res)
	resp.Trace = s.publishTrace(cfg.Trace)
	return resp, nil
}

// clusterTarget resolves a cluster request's topology and scorer, falling
// back to the daemon defaults for empty fields.
func (s *Server) clusterTarget(nodesSpec, scorerName string) ([]hetsched.SystemSpec, hetsched.ScorerKind, error) {
	nodes, scorer := s.cfg.ClusterNodes, s.cfg.ClusterScorer
	var err error
	if nodesSpec != "" {
		if nodes, err = hetsched.ParseClusterSpec(nodesSpec); err != nil {
			return nil, 0, fmt.Errorf("nodes: %w", err)
		}
	}
	if scorerName != "" {
		if scorer, err = hetsched.ParseScorer(scorerName); err != nil {
			return nil, 0, err
		}
	}
	return nodes, scorer, nil
}

// summarizeCluster projects a ClusterResult onto the wire schema.
func summarizeCluster(nodes []hetsched.SystemSpec, res *hetsched.ClusterResult) ClusterScheduleResponse {
	resp := ClusterScheduleResponse{
		System:    res.System,
		Scorer:    res.Scorer.String(),
		Nodes:     hetsched.FormatClusterSpec(nodes),
		NodeCount: len(res.Nodes),
		Cores:     res.Cores(),
		Jobs:      res.Jobs,
		Completed: res.Completed,
		Steals:    res.Steals,

		MakespanCycles:   res.Makespan,
		TurnaroundCycles: res.TurnaroundCycles,
		TurnaroundP50:    res.TurnaroundPercentile(50),
		TurnaroundP95:    res.TurnaroundPercentile(95),
		TurnaroundP99:    res.TurnaroundPercentile(99),

		TotalEnergyNJ:     res.TotalEnergyNJ(),
		IdleEnergyNJ:      res.IdleEnergyNJ,
		DynamicEnergyNJ:   res.DynamicEnergyNJ,
		StaticEnergyNJ:    res.StaticEnergyNJ,
		CoreEnergyNJ:      res.CoreEnergyNJ,
		ProfilingEnergyNJ: res.ProfilingEnergyNJ,
	}
	for _, nr := range res.Nodes {
		resp.PerNode = append(resp.PerNode, ClusterNodeWire{
			Node:           nr.Node,
			Shape:          nr.Spec.String(),
			Cores:          nr.Spec.Cores(),
			Jobs:           nr.JobsRouted,
			Completed:      nr.Metrics.Completed,
			StolenIn:       nr.StolenIn,
			StolenOut:      nr.StolenOut,
			MaxPending:     nr.MaxPending,
			MakespanCycles: nr.Metrics.Makespan,
			TotalEnergyNJ:  nr.Metrics.TotalEnergy(),
		})
	}
	return resp
}

// handleClusterStatus serves GET /v1/cluster/status: the daemon's default
// topology and the cumulative cluster counters.
func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	cores := 0
	for _, spec := range s.cfg.ClusterNodes {
		cores += spec.Cores()
	}
	runs, steals, nodes := s.met.ClusterCounters()
	writeJSON(w, http.StatusOK, ClusterStatusResponse{
		Nodes:        hetsched.FormatClusterSpec(s.cfg.ClusterNodes),
		NodeCount:    len(s.cfg.ClusterNodes),
		Cores:        cores,
		Scorer:       s.cfg.ClusterScorer.String(),
		ClusterRuns:  runs,
		Steals:       steals,
		NodeCounters: nodes,
	})
}
