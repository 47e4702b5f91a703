package server

import (
	"testing"

	"hetsched"
)

// TestMetricsSnapshotConsistent feeds identical traced cluster-endpoint and
// single-node predictor runs from one goroutine while the test goroutine takes
// snapshots: each snapshot must hold every observed run whole, so each
// cumulative counter is its per-run amount times its run count.
func TestMetricsSnapshotConsistent(t *testing.T) {
	const k, c, p = 3, 2, 5 // jobs routed to node 0, decisions, predictions per run
	m := NewMetrics(nil)
	res := &hetsched.ClusterResult{Nodes: []hetsched.ClusterNodeResult{{Node: 0, JobsRouted: k}}}
	tb := &TraceBlock{Counts: map[string]uint64{"dispatch": c}}
	node := &hetsched.ClusterResult{Nodes: []hetsched.ClusterNodeResult{{Metrics: hetsched.Metrics{
		Predictor: &hetsched.PredictorStats{Name: "oracle", Predictions: p, Hits: p},
	}}}}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			m.observe(res, tb, true)
			m.observe(node, tb, false)
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		snap := m.Snapshot()
		if got := snap.ClusterNodes["0"].Jobs; got != k*snap.ClusterRuns {
			t.Fatalf("cluster_nodes[0].jobs = %d with %d cluster runs, want %d per run", got, snap.ClusterRuns, k)
		}
		if got := snap.TraceDecisions["dispatch"]; got != c*uint64(snap.TracedRuns) {
			t.Fatalf("trace_decisions[dispatch] = %d with %d traced runs, want %d per run", got, snap.TracedRuns, c)
		}
		if snap.PredictorRuns > 0 && snap.Predictor.Predictions != p*snap.PredictorRuns {
			t.Fatalf("predictor.predictions = %d with %d predictor runs, want %d per run",
				snap.Predictor.Predictions, snap.PredictorRuns, p)
		}
	}
	if snap := m.Snapshot(); snap.ClusterRuns != 2000 || snap.TracedRuns != 4000 || snap.PredictorRuns != 2000 {
		t.Errorf("final runs = cluster %d, traced %d, predictor %d; want 2000, 4000, 2000",
			snap.ClusterRuns, snap.TracedRuns, snap.PredictorRuns)
	}
}
