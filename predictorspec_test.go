package hetsched

import (
	"math"
	"reflect"
	"testing"
)

// TestPredictorSpecRoundTrip extends the flag.TextVar round-trip contract
// to PredictorSpec: every fixed kind name parses and renders verbatim (so
// existing -predictor values keep working), ensemble specs round-trip
// through String, and invalid specs refuse to parse or marshal.
func TestPredictorSpecRoundTrip(t *testing.T) {
	// Every fixed trained kind name, verbatim.
	for _, name := range []string{"ann", "oracle", "linear", "knn", "stump", "tree"} {
		spec, err := ParsePredictorSpec(name)
		if err != nil {
			t.Fatalf("fixed kind %q no longer parses: %v", name, err)
		}
		if !spec.IsSingle(name) || spec.String() != name {
			t.Errorf("fixed kind %q mangled: parsed %+v, renders %q", name, spec, spec)
		}
		if single := (PredictorSpec{Members: []MemberSpec{{Kind: name, Weight: 1}}}); !reflect.DeepEqual(spec, single) {
			t.Errorf("fixed kind %q parsed to %+v, want %+v", name, spec, single)
		}
		if spec.Online() {
			t.Errorf("fixed kind %q reported online", name)
		}
	}

	// New single online kinds and ensemble grammars.
	for _, tc := range []struct {
		in, out string
		online  bool
	}{
		{"table", "table", true},
		{"markov", "markov", true},
		{"nn", "nn", true},
		{"ensemble:table,markov,ann", "ensemble:table,markov,ann", true},
		{"ensemble:table=2,markov,ann=0.5", "ensemble:table=2,markov,ann=0.5", true},
		{"ensemble:oracle", "oracle", false}, // single weight-1 member renders bare
		{"ensemble:nn=3", "ensemble:nn=3", true},
	} {
		spec, err := ParsePredictorSpec(tc.in)
		if err != nil {
			t.Errorf("ParsePredictorSpec(%q): %v", tc.in, err)
			continue
		}
		if spec.String() != tc.out {
			t.Errorf("%q renders %q, want %q", tc.in, spec, tc.out)
		}
		if spec.Online() != tc.online {
			t.Errorf("%q online = %v, want %v", tc.in, spec.Online(), tc.online)
		}
		// Full TextMarshaler/TextUnmarshaler/flag.Value round trip.
		text, err := spec.MarshalText()
		if err != nil {
			t.Errorf("%q failed to marshal: %v", tc.in, err)
			continue
		}
		var got PredictorSpec
		if err := got.UnmarshalText(text); err != nil || !reflect.DeepEqual(got, spec) {
			t.Errorf("unmarshal(%q) = %+v, %v; want %+v", text, got, err, spec)
		}
		var viaSet PredictorSpec
		if err := viaSet.Set(tc.in); err != nil || !reflect.DeepEqual(viaSet, spec) {
			t.Errorf("Set(%q) = %+v, %v", tc.in, viaSet, err)
		}
	}

	for _, bad := range []string{
		"", "nosuch", "ensemble:", "ensemble:nosuch", "ensemble:table,table",
		"ensemble:table=0", "ensemble:table=-1", "ensemble:table=x",
		"ensemble:table=Inf", "ensemble:table=NaN", "ensemble:,",
	} {
		if _, err := ParsePredictorSpec(bad); err == nil {
			t.Errorf("invalid spec %q accepted", bad)
		}
	}
	var zero PredictorSpec
	if _, err := zero.MarshalText(); err == nil {
		t.Error("zero spec marshaled")
	}
	if !zero.IsZero() {
		t.Error("zero spec not IsZero")
	}
	if DefaultPredictorSpec().String() != "ann" {
		t.Errorf("default spec %q, want ann", DefaultPredictorSpec())
	}
}

// FuzzParsePredictorSpec: anything that parses must render to a canonical
// string that re-parses to the same spec (parse -> String -> parse is the
// identity), and the canonical form must be stable.
func FuzzParsePredictorSpec(f *testing.F) {
	for _, seed := range []string{
		"ann", "oracle", "table", "ensemble:table,markov,ann",
		"ensemble:table=2,markov,ann=0.5", "ensemble:nn=1e-3",
		"ensemble:", "nosuch", "ensemble:table=0", "ensemble:a=b=c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParsePredictorSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec %q fails its own validation: %v", s, err)
		}
		canon := spec.String()
		again, err := ParsePredictorSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip drifted: %q -> %+v -> %q -> %+v", s, spec, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("canonical form unstable: %q -> %q", canon, again.String())
		}
	})
}

// onlineSystem builds a System over the cheap online-only ensemble — no
// ANN training, so it is fast enough for the determinism matrix.
func onlineSystem(t testing.TB, workers int) *System {
	t.Helper()
	sys, err := New(Options{
		Spec:    MustParsePredictorSpec("ensemble:table,markov,nn"),
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEnsembleDeterminism pins the fork-per-run design: with a fixed
// workload seed the online ensemble's run is bit-identical across repeated
// runs and across characterization worker counts, and earlier runs never
// leak learned state into later ones.
func TestEnsembleDeterminism(t *testing.T) {
	run := func(sys *System) Metrics {
		jobs, err := sys.Workload(300, 0.9, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.RunSystem("proposed", jobs, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sys1 := onlineSystem(t, 1)
	first := run(sys1)
	if first.Predictor == nil || first.Predictor.Predictions == 0 {
		t.Fatalf("online run reported no predictor scorecard: %+v", first.Predictor)
	}
	if second := run(sys1); !reflect.DeepEqual(first, second) {
		t.Errorf("repeat run diverged (learned state leaked across runs):\n%+v\n%+v", first, second)
	}
	sys4 := onlineSystem(t, 4)
	if cross := run(sys4); !reflect.DeepEqual(first, cross) {
		t.Errorf("worker count changed the run:\n%+v\n%+v", first, cross)
	}
}

// TestWithPredictorSpecFacade covers the hot-swap seam: the new System
// shares the characterization DBs, reports the new spec, and a rejected
// spec returns an error without a System.
func TestWithPredictorSpecFacade(t *testing.T) {
	sys := oracleSystem(t)
	swapped, err := sys.WithPredictorSpec(MustParsePredictorSpec("ensemble:table,markov,nn"))
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Eval != sys.Eval || swapped.Train != sys.Train {
		t.Error("swap did not share the characterization DBs")
	}
	if swapped.PredictorName() != "ensemble:table,markov,nn" {
		t.Errorf("swapped name %q", swapped.PredictorName())
	}
	if sys.PredictorName() != "oracle" {
		t.Errorf("receiver mutated: %q", sys.PredictorName())
	}
	if _, err := sys.WithPredictorSpec(PredictorSpec{}); err == nil {
		t.Error("empty spec accepted by WithPredictorSpec")
	}

	// The swapped system predicts with vote detail.
	d, err := swapped.PredictBestSizeDetail("matrix")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Votes) != 3 {
		t.Errorf("cold ensemble cast %d votes, want 3", len(d.Votes))
	}
	var wsum float64
	for _, v := range d.Votes {
		wsum += v.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("vote weights sum to %v, want 1", wsum)
	}
}

// TestEnsembleRegretVsFixedANN is the PR's acceptance criterion: over a
// long workload the online ensemble's cumulative energy regret against the
// oracle is no worse than the fixed 30-member ANN bag's on the same jobs.
func TestEnsembleRegretVsFixedANN(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN and schedules two 5000-job workloads; skipped in -short")
	}
	arrivals := 5000
	run := func(spec string) *PredictorStats {
		sys, err := New(Options{Spec: MustParsePredictorSpec(spec)})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := sys.Workload(arrivals, 0.9, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.RunSystem("proposed", jobs, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Predictor == nil {
			t.Fatalf("%s: run reported no predictor scorecard", spec)
		}
		t.Logf("%-28s predictions=%d hit-rate=%.3f regret=%.0f nJ",
			spec, m.Predictor.Predictions, m.Predictor.HitRate(), m.Predictor.RegretNJ)
		return m.Predictor
	}
	fixed := run("ann")
	online := run("ensemble:table,markov,ann")
	if online.Predictions != fixed.Predictions {
		t.Fatalf("prediction counts differ: ensemble %d vs ann %d (not comparable)",
			online.Predictions, fixed.Predictions)
	}
	if online.RegretNJ > fixed.RegretNJ {
		t.Errorf("online ensemble regret %.0f nJ exceeds the fixed ANN bag's %.0f nJ",
			online.RegretNJ, fixed.RegretNJ)
	}
}
