package hetsched

import (
	"reflect"
	"slices"
	"testing"

	"hetsched/internal/ann"
	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/stats"
)

// countingPredictor counts PredictSizeKB calls per feature vector. It
// implements no optional interface, so the simulator treats it as the
// fixed predictor it wraps.
type countingPredictor struct {
	inner core.Predictor
	calls map[stats.Features]int
	total int
}

func (c *countingPredictor) PredictSizeKB(f stats.Features) (int, error) {
	c.calls[f]++
	c.total++
	return c.inner.PredictSizeKB(f)
}

// feedbackShim gives a fixed predictor a no-op FeedbackPredictor hook,
// which sends the simulator down the online path: re-predict at every
// completion, before and after the (empty) feedback.
type feedbackShim struct{ core.Predictor }

func (feedbackShim) Observe(stats.Features, int, int, float64) {}

// uncachedBag answers every call from a fresh predictor over the same bag,
// so every call evaluates the bag: the memo's reference.
type uncachedBag struct{ p *ann.SizePredictor }

func (u uncachedBag) fresh() *ann.SizePredictor {
	return &ann.SizePredictor{Ens: u.p.Ens, Norm: u.p.Norm}
}

func (u uncachedBag) PredictSizeKB(f stats.Features) (int, error) {
	return u.fresh().PredictSizeKB(f)
}

func (u uncachedBag) MemberVotes(f stats.Features) (map[int]int, error) {
	return u.fresh().MemberVotes(f)
}

// TestFixedPredictionReuseIsExact pins the profiling-table reuse: with the
// trained ANN bag, the simulator asks a fixed predictor once per profiled
// application, and the run is bit-identical to one that re-predicts at
// every completion, the predictor scorecard included. Covered with and
// without faults (counter noise perturbs the profiled features). The
// cluster cases pin the bag's own memo, which answers every node after the
// first to ask: a multi-node run, traced, is bit-identical to one whose bag
// evaluates every call.
func TestFixedPredictionReuseIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN; skipped in -short")
	}
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sys.Workload(1500, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := ParseFaultPlan("mttf=5e6,recover=1e5,permanent=5e7,noise=0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sim  SimConfig
	}{
		{"fault-free", SimConfig{}},
		{"faulted", SimConfig{Faults: faulted}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counted := &countingPredictor{inner: sys.Pred, calls: map[stats.Features]int{}}
			withCount := *sys
			withCount.Pred = counted
			reused, err := withCount.RunSystem("proposed", jobs, tc.sim)
			if err != nil {
				t.Fatal(err)
			}
			if counted.total == 0 || counted.total > reused.ProfilingRuns {
				t.Errorf("%d predictions for %d profiling runs", counted.total, reused.ProfilingRuns)
			}
			for f, n := range counted.calls {
				if n != 1 {
					t.Errorf("features %v predicted %d times", f[:3], n)
				}
			}
			if reused.Predictor == nil || reused.Predictor.Predictions == 0 {
				t.Fatalf("no predictor scorecard: %+v", reused.Predictor)
			}

			withShim := *sys
			withShim.Pred = feedbackShim{sys.Pred}
			repredicted, err := withShim.RunSystem("proposed", jobs, tc.sim)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, repredicted) {
				t.Errorf("stored-prediction run differs from the re-predicting run:\nreused %+v\nrepredicted %+v", reused.Predictor, repredicted.Predictor)
			}
		})
	}

	bag, ok := sys.Pred.(*ann.SizePredictor)
	if !ok {
		t.Fatalf("default predictor is %T, want the ANN bag", sys.Pred)
	}
	nodes, err := ParseClusterSpec("3*quad;2*4x8;1*16x2")
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := ParseFaultPlan("noise=0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	clusterJobs, err := sys.ClusterWorkload(nodes, nil, 1500, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults FaultPlan
	}{
		{"cluster", FaultPlan{}},
		{"cluster-noisy", noisy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(p Predictor) (*ClusterResult, []TraceEvent) {
				withPred := *sys
				withPred.Pred = p
				rec := NewTraceRecorder()
				res, err := withPred.RunCluster(ClusterConfig{
					Nodes: nodes, Workers: 3, Sim: SimConfig{Faults: tc.faults}, Trace: rec,
				}, clusterJobs)
				if err != nil {
					t.Fatal(err)
				}
				return res, rec.Events()
			}
			memoized, memoEvents := run(&ann.SizePredictor{Ens: bag.Ens, Norm: bag.Norm})
			evaluated, evalEvents := run(uncachedBag{bag})
			if !reflect.DeepEqual(memoized, evaluated) {
				t.Errorf("memoized cluster run differs from the evaluate-every-call run")
			}
			if !reflect.DeepEqual(memoEvents, evalEvents) {
				t.Errorf("memoized cluster trace (%d events) differs from the evaluate-every-call trace (%d)", len(memoEvents), len(evalEvents))
			}
			if len(memoEvents) == 0 {
				t.Error("the traced cluster run recorded nothing")
			}
		})
	}
}

// freshTable1 rebuilds Table 1 from the paper's rule, independently of
// internal/cache: sizes 2/4/8 KB reach 1/2/4 ways, every line size.
func freshTable1() []cache.Config {
	var out []cache.Config
	for _, size := range []int{2, 4, 8} {
		for _, ways := range []int{1, 2, 4} {
			if size == 2 && ways > 1 || size == 4 && ways > 2 {
				continue
			}
			for _, line := range []int{16, 32, 64} {
				out = append(out, cache.Config{SizeKB: size, Ways: ways, LineBytes: line})
			}
		}
	}
	return out
}

// checkTable1 compares every shared design-space view with a fresh build.
func checkTable1(t *testing.T, after string) {
	t.Helper()
	want := freshTable1()
	if got := cache.DesignSpace(); !reflect.DeepEqual(got, want) {
		t.Errorf("after %s: DesignSpace() = %v", after, got)
	}
	if got := cache.Sizes(); !reflect.DeepEqual(got, []int{2, 4, 8}) {
		t.Errorf("after %s: Sizes() = %v", after, got)
	}
	for _, size := range []int{2, 4, 8} {
		var cfgs []cache.Config
		var ways []int
		for _, c := range want {
			if c.SizeKB == size {
				cfgs = append(cfgs, c)
				if !slices.Contains(ways, c.Ways) {
					ways = append(ways, c.Ways)
				}
			}
		}
		if got := cache.ConfigsForSize(size); !reflect.DeepEqual(got, cfgs) {
			t.Errorf("after %s: ConfigsForSize(%d) = %v", after, size, got)
		}
		if got := cache.Associativities(size); !reflect.DeepEqual(got, ways) {
			t.Errorf("after %s: Associativities(%d) = %v", after, size, got)
		}
	}
}

// TestSharedTablesSurviveRuns runs the paths that read the shared Table 1
// views hardest — a four-system experiment, a faulted multi-node cluster
// with stealing, and an online-learning ensemble — and checks that none
// of them wrote into the tables.
func TestSharedTablesSurviveRuns(t *testing.T) {
	sys := oracleSystem(t)
	checkTable1(t, "setup")

	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 400
	if _, err := sys.Experiment(cfg); err != nil {
		t.Fatal(err)
	}
	checkTable1(t, "the four-system experiment")

	nodes, err := ParseClusterSpec("2*quad;1*4x8;1*16x2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("mttf=2e6,recover=1e5,permanent=1e6,stuck=5e6,noise=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sys.ClusterWorkload(nodes, nil, 400, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCluster(ClusterConfig{Nodes: nodes, Sim: SimConfig{Faults: plan}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Error("the cluster run stole nothing; pick a topology that exercises stealing")
	}
	checkTable1(t, "the faulted cluster run")

	ens, err := sys.WithPredictorSpec(MustParsePredictorSpec("ensemble:table,markov,oracle"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ens.Workload(400, 0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ens.RunSystem("proposed", wl, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predictor == nil || len(m.Predictor.Members) != 3 {
		t.Fatalf("ensemble run reported no member scorecards: %+v", m.Predictor)
	}
	checkTable1(t, "the ensemble learning run")
}
