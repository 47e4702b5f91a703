package server

import (
	"errors"
	"fmt"
	"net/http"

	"hetsched"
	"hetsched/internal/scenario"
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
	s.serveSchedule(w, r, "cluster", &req, func() (*scheduleRun, error) {
		cfg, err := s.checkCluster(req.Nodes, req.Scorer, req.System, &req.Arrivals, req.Utilization,
			req.StealThreshold, req.DisableStealing)
		if err != nil {
			return nil, err
		}
		var traced bool
		if cfg.Sim.Faults, traced, err = checkGenerated(r, req.Faults, req.Kernels, req.Priority); err != nil {
			return nil, err
		}
		return &scheduleRun{
			priority: req.Priority, cost: req.Arrivals, traced: traced, cluster: cfg, clustered: true,
			generate: generated(scenario.Spec{Source: "uniform"}, req.Kernels, cfg.Nodes, req.Arrivals, req.Utilization, req.Seed),
			respond:  func(o runOutcome) any { return summarizeCluster(cfg, o) },
		}, nil
	})
}

// checkCluster checks what both cluster endpoints share, in their order —
// the topology and scorer (empty fields fall back to the daemon defaults),
// the run fields, the steal threshold — and returns the dispatcher's
// configuration.
func (s *Server) checkCluster(nodesSpec, scorerName, system string, arrivals *int, utilization float64,
	stealThreshold int, disableStealing bool) (hetsched.ClusterConfig, error) {
	cfg := hetsched.ClusterConfig{
		Nodes:           s.cfg.ClusterNodes,
		System:          system,
		Scorer:          s.cfg.ClusterScorer,
		StealThreshold:  stealThreshold,
		DisableStealing: disableStealing,
	}
	var err error
	if nodesSpec != "" {
		if cfg.Nodes, err = hetsched.ParseClusterSpec(nodesSpec); err != nil {
			return cfg, fmt.Errorf("nodes: %w", err)
		}
	}
	if scorerName != "" {
		if cfg.Scorer, err = hetsched.ParseScorer(scorerName); err != nil {
			return cfg, err
		}
	}
	if err := s.checkRun(system, arrivals, utilization); err != nil {
		return cfg, err
	}
	if stealThreshold < 0 {
		return cfg, errors.New("negative steal_threshold")
	}
	return cfg, nil
}

// generated is the generated endpoints' workload source: one draw of the
// request's scenario over its kernel mix (none is the whole suite), sized
// for the topology's cores.
func generated(sp hetsched.ScenarioSpec, kernels []string, nodes []hetsched.SystemSpec,
	arrivals int, utilization float64, seed int64) func(*hetsched.System) ([]hetsched.Job, error) {
	return func(sys *hetsched.System) ([]hetsched.Job, error) {
		return sp.Generate(scenario.Params{
			DB:          sys.Eval,
			Kernels:     kernels,
			Arrivals:    arrivals,
			Cores:       clusterCores(nodes),
			Utilization: utilization,
			Seed:        seed,
		})
	}
}

// clusterCores is a topology's total core count.
func clusterCores(nodes []hetsched.SystemSpec) int {
	cores := 0
	for _, spec := range nodes {
		cores += spec.Cores()
	}
	return cores
}

// summarizeCluster projects a cluster run's outcome onto the wire schema;
// a batch with no valid row reports only the topology.
func summarizeCluster(cfg hetsched.ClusterConfig, o runOutcome) ClusterScheduleResponse {
	res := o.res
	if res == nil {
		res = &hetsched.ClusterResult{}
	}
	resp := ClusterScheduleResponse{
		System:    cfg.System,
		Scorer:    cfg.Scorer.String(),
		Nodes:     hetsched.FormatClusterSpec(cfg.Nodes),
		NodeCount: len(cfg.Nodes),
		Cores:     clusterCores(cfg.Nodes),
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

		Trace: o.trace,
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
	met := s.met.Snapshot()
	writeJSON(w, http.StatusOK, ClusterStatusResponse{
		Nodes:        hetsched.FormatClusterSpec(s.cfg.ClusterNodes),
		NodeCount:    len(s.cfg.ClusterNodes),
		Cores:        clusterCores(s.cfg.ClusterNodes),
		Scorer:       s.cfg.ClusterScorer.String(),
		ClusterRuns:  met.ClusterRuns,
		Steals:       met.ClusterSteals,
		NodeCounters: met.ClusterNodes,
	})
}
