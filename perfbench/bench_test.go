package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"hetsched/internal/ann"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/predict"
	"hetsched/internal/server"
	"hetsched/internal/stats"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {99, 0}, {100, 90}, {101, 90}, {999, 90}, {1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := beyond(99, 90); got != 9 {
		t.Errorf("beyond(99, 90) = %d, want 9", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

// fakeClock advances only when the generator sleeps or an op runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	const interval = 100 * time.Millisecond
	// Op 0 stalls for 350ms; every other op takes 10ms. One sender, so the
	// ops due during the stall go out late, back to back.
	samples := openLoop(clk, start, 10, 0, 6, 1, func(op int) bool {
		if op == 0 {
			clk.now = clk.now.Add(350 * time.Millisecond)
		} else {
			clk.now = clk.now.Add(10 * time.Millisecond)
		}
		return true
	})
	wantLatency := []time.Duration{350, 260, 170, 80, 10, 10}
	wantLag := []time.Duration{0, 250, 160, 70, 0, 0}
	for k, s := range samples {
		if s.due != start.Add(time.Duration(k)*interval) {
			t.Errorf("op %d due at %v, want %v", k, s.due.Sub(start), time.Duration(k)*interval)
		}
		if got, want := s.latency(), wantLatency[k]*time.Millisecond; got != want {
			t.Errorf("op %d latency %v, want %v (counted from its due time)", k, got, want)
		}
		if got, want := s.lag(), wantLag[k]*time.Millisecond; got != want {
			t.Errorf("op %d lag %v, want %v", k, got, want)
		}
	}
}

func TestOpenLoopIssuesEveryOpOnce(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[int]int{}
	)
	samples := openLoop(realClock{}, time.Now(), 2000, 40, 50, 2, func(op int) bool {
		mu.Lock()
		seen[op]++
		mu.Unlock()
		return op%7 != 0
	})
	for k, s := range samples {
		if s.op != 40+k || seen[s.op] != 1 || s.ok != (s.op%7 != 0) {
			t.Errorf("sample %d: op %d issued %d times, ok %v", k, s.op, seen[s.op], s.ok)
		}
	}
}

func TestSkewGenColdRowsNeverRepeat(t *testing.T) {
	g := newSkewGen(7)
	hotVariant, _ := variants([]server.BatchJob{g.hot})
	seen := map[characterize.Variant]int{}
	hot := 0
	ops := []int{}
	for op := 0; op < 3000; op++ {
		ops = append(ops, op, closedBase+op)
	}
	for _, op := range ops {
		rows := g.rows(op)
		if len(rows) != skewRows {
			t.Fatalf("op %d: %d rows, want %d", op, len(rows), skewRows)
		}
		vs, appOf := variants(rows)
		if len(vs) != 1+skewCold || vs[0] != hotVariant[0] {
			t.Fatalf("op %d: variants %v, want the hot one first and %d cold", op, vs, skewCold)
		}
		for _, id := range appOf {
			if id == 0 {
				hot++
			}
		}
		for _, v := range vs[1:] {
			if prev, ok := seen[v]; ok {
				t.Fatalf("op %d repeats cold variant %+v of op %d", op, v, prev)
			}
			seen[v] = op
		}
	}
	if want := len(ops) * skewRows * 8 / 10; hot != want {
		t.Errorf("%d hot rows, want %d (80%%)", hot, want)
	}
	// The same seed gives the same sequence; another seed other cold rows.
	if g2 := newSkewGen(7); g2.rows(5)[4] != g.rows(5)[4] {
		t.Error("same seed, different op")
	}
	if g3 := newSkewGen(8); g3.rows(5)[4] == g.rows(5)[4] {
		t.Error("different seeds issue the same cold row")
	}
}

func TestDigestRejectsChangedOutput(t *testing.T) {
	d := newDigest(2)
	if err := d.add(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.sum(); err == nil {
		t.Error("sum with op 1 missing succeeded")
	}
	if err := d.add(0, []byte("a")); err != nil {
		t.Errorf("repeating an identical op: %v", err)
	}
	if err := d.add(0, []byte("b")); err == nil {
		t.Error("a repeated op with different output was accepted")
	}
	if err := d.add(1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := d.add(9, []byte("beyond the prefix")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.sum(); err != nil {
		t.Error(err)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "a", Start: 30, End: 70, Parent: 0},
		{Name: "b", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	tot := tr.totals()
	if got := tot["op"].self; got != 30 {
		t.Errorf("op self = %d, want 30 (100 - [10,70) - [90,100))", got)
	}
	if got := tot["a"]; got.count != 2 || got.total != 80 || got.self != 80 {
		t.Errorf("a = %+v, want 2 spans, 80 total and self", got)
	}
}

// Fakes with the capability sets a metering wrapper must reproduce.
type plainPred struct{}

func (plainPred) PredictSizeKB(stats.Features) (int, error) { return 4, nil }

type forkOnly struct{ plainPred }

func (forkOnly) Fork() core.Predictor { return forkOnly{} }

func TestMeterKeepsCapabilities(t *testing.T) {
	ens, err := predict.New("ensemble:table,markov", []predict.Member{predict.NewTable(), predict.NewMarkov()}, []float64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newPredMeter(newTracer(), "predict")
	for _, p := range []core.Predictor{plainPred{}, &ann.SizePredictor{}, ens} {
		w, err := m.wrap(p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if capsOf(w) != capsOf(p) {
			t.Errorf("%T: wrapper capabilities %06b, predictor %06b", p, capsOf(w), capsOf(p))
		}
	}
	if capsOf(&ann.SizePredictor{}) != capsANN || capsOf(ens) != capsEnsemble {
		t.Errorf("ANN bag %06b, ensemble %06b: the wrappers no longer match them", capsOf(&ann.SizePredictor{}), capsOf(ens))
	}
	w, _ := m.wrap(ens)
	if fork := w.(core.ForkingPredictor).Fork(); capsOf(fork) != capsEnsemble {
		t.Errorf("fork capabilities %06b", capsOf(fork))
	} else if _, ok := fork.(*meteredEnsemble); !ok {
		t.Errorf("fork %T is not metered", fork)
	}
	if _, err := m.wrap(forkOnly{}); err == nil {
		t.Error("a capability set without a wrapper was accepted")
	}
}

func TestMeterCountsOnlyWhileMetering(t *testing.T) {
	tr := newTracer()
	m := newPredMeter(tr, "ann")
	w, err := m.wrap(plainPred{})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = w.PredictSizeKB(stats.Features{})
	tr.setMetering(true)
	_, _ = w.PredictSizeKB(stats.Features{})
	_, _ = w.PredictSizeKB(stats.Features{})
	if got := m.calls.Load(); got != 2 {
		t.Errorf("%d calls counted, want 2", got)
	}
	if got := tr.totals()["ann.predict"].count; got != 2 {
		t.Errorf("%d spans, want 2", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: %s [%s] here, %s [%s] in BENCHMARK.json", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
	}
}
