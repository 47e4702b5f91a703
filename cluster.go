package hetsched

import (
	"context"
	"fmt"

	"hetsched/internal/cluster"
	"hetsched/internal/core"
)

// Cluster-facing re-exports: the two-level scheduler of internal/cluster
// behind the facade's vocabulary.
type (
	// SystemSpec declares one node's shape (core sizes and latencies);
	// ParseClusterSpec parses a list of them ("4x8,16x2", "quad").
	SystemSpec = core.SystemSpec
	// ClusterConfig shapes a multi-node cluster run.
	ClusterConfig = cluster.Config
	// ClusterResult aggregates one cluster run.
	ClusterResult = cluster.Result
	// ClusterNodeResult is one node's share of a cluster run.
	ClusterNodeResult = cluster.NodeResult
	// ScorerKind selects the cluster dispatcher's scoring strategy.
	ScorerKind = cluster.ScorerKind
)

// Cluster scoring strategies.
const (
	ScoreHybrid     = cluster.ScoreHybrid
	ScoreBalance    = cluster.ScoreBalance
	ScoreEnergy     = cluster.ScoreEnergy
	ScoreRoundRobin = cluster.ScoreRoundRobin
)

// DefaultSystemSpec returns the paper's Figure 1 quad-core node shape.
func DefaultSystemSpec() SystemSpec { return core.DefaultSystemSpec() }

// ParseClusterSpec parses the CLIs' shared -cluster flag vocabulary:
// node shapes joined by ';' with optional N* repetition — "16*quad",
// "8*4x8;8*16x2".
func ParseClusterSpec(s string) ([]SystemSpec, error) { return cluster.ParseClusterSpec(s) }

// FormatClusterSpec is the inverse of ParseClusterSpec.
func FormatClusterSpec(nodes []SystemSpec) string { return cluster.FormatClusterSpec(nodes) }

// ParseScorer parses a cluster scorer name
// ("hybrid"|"balance"|"energy"|"roundrobin").
func ParseScorer(s string) (ScorerKind, error) { return cluster.ParseScorer(s) }

// RunCluster schedules jobs across a multi-node cluster: the two-level
// dispatcher routes every arrival through the filter/score pipeline, then
// each node runs the named per-node system over its share. A ClusterConfig
// whose Sim.Faults/Trace are unset inherits the System's defaults, mirroring
// RunSystem.
func (s *System) RunCluster(cfg ClusterConfig, jobs []Job) (*ClusterResult, error) {
	return s.RunClusterContext(context.Background(), cfg, jobs)
}

// RunClusterContext is RunCluster honoring cancellation while routing
// and at every node-simulation boundary.
func (s *System) RunClusterContext(ctx context.Context, cfg ClusterConfig, jobs []Job) (*ClusterResult, error) {
	return s.RunClusterOnDBContext(ctx, s.Eval, cfg, jobs)
}

// RunClusterOnDBContext is RunClusterContext over an explicit
// characterization DB: job AppIDs index db, and the oracle predictor (if
// configured) is re-bound to it — the cluster half of the serving tier's
// batch path (see RunOnDBContext).
func (s *System) RunClusterOnDBContext(ctx context.Context, db *DB, cfg ClusterConfig, jobs []Job) (*ClusterResult, error) {
	if db == nil {
		return nil, fmt.Errorf("hetsched: nil characterization DB")
	}
	if !cfg.Sim.Faults.Enabled() && s.faults.Enabled() {
		cfg.Sim.Faults = s.faults
	}
	if cfg.Trace == nil {
		cfg.Trace = s.tracer
	}
	cl, err := cluster.New(db, s.Energy, s.predictorFor(db), cfg)
	if err != nil {
		return nil, err
	}
	return cl.RunContext(ctx, jobs)
}

// ClusterWorkload generates the paper-style arrival stream sized for a
// whole cluster: the utilization target spreads arrivals over the
// cluster's total core count, not a single node's. A non-empty kernels
// list is the spec's mix= (repeat a name to weight it); empty draws
// uniformly over the whole suite.
func (s *System) ClusterWorkload(nodes []SystemSpec, kernels []string, arrivals int, utilization float64, seed int64) ([]Job, error) {
	return s.generate(ScenarioSpec{Source: "uniform", Mix: kernels}, nodes, arrivals, utilization, seed)
}
