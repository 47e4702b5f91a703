package ann_test

import (
	"sync"
	"testing"

	"hetsched"
	"hetsched/internal/ann"
	"hetsched/internal/stats"
)

// askedFeatures forwards to a bag and records every feature vector the
// nodes of a cluster ask it about.
type askedFeatures struct {
	p *ann.SizePredictor

	mu    sync.Mutex
	calls int
	seen  map[stats.Features]bool
}

func (a *askedFeatures) ask(f stats.Features) {
	a.mu.Lock()
	a.calls++
	a.seen[f] = true
	a.mu.Unlock()
}

func (a *askedFeatures) PredictSizeKB(f stats.Features) (int, error) {
	a.ask(f)
	return a.p.PredictSizeKB(f)
}

func (a *askedFeatures) MemberVotes(f stats.Features) (map[int]int, error) {
	a.ask(f)
	return a.p.MemberVotes(f)
}

// TestClusterBagEvaluationsBounded: on a multi-node cluster run, with and
// without counter noise, the bag runs at most once per distinct feature
// vector the nodes ask about; without noise the nodes repeat each other's
// questions, so the memo answers most calls.
func TestClusterBagEvaluationsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN; skipped in -short")
	}
	sys, err := hetsched.New(hetsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bag, ok := sys.Pred.(*ann.SizePredictor)
	if !ok {
		t.Fatalf("default predictor is %T, want the ANN bag", sys.Pred)
	}
	nodes, err := hetsched.ParseClusterSpec("3*quad;2*4x8;1*16x2")
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := hetsched.ParseFaultPlan("noise=0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sys.ClusterWorkload(nodes, nil, 1500, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults hetsched.FaultPlan
	}{
		{"clean", hetsched.FaultPlan{}},
		{"noisy", noisy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := &ann.SizePredictor{Ens: bag.Ens, Norm: bag.Norm}
			asked := &askedFeatures{p: fresh, seen: map[stats.Features]bool{}}
			run := *sys
			run.Pred = asked
			if _, err := run.RunCluster(hetsched.ClusterConfig{
				Nodes: nodes, Workers: 3, Sim: hetsched.SimConfig{Faults: tc.faults},
				Trace: hetsched.NewTraceRecorder(),
			}, jobs); err != nil {
				t.Fatal(err)
			}
			evals := ann.Evaluations(fresh)
			t.Logf("%d calls, %d distinct feature vectors, %d bag evaluations", asked.calls, len(asked.seen), evals)
			if evals == 0 || evals > int64(len(asked.seen)) {
				t.Errorf("%d bag evaluations for %d distinct feature vectors", evals, len(asked.seen))
			}
			if tc.faults.CounterNoise == 0 && asked.calls < 2*len(asked.seen) {
				t.Errorf("%d calls over %d distinct feature vectors: the nodes no longer repeat each other's questions", asked.calls, len(asked.seen))
			}
		})
	}
}
