package hetsched

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetsched/internal/ann"
	"hetsched/internal/characterize"
	"hetsched/internal/energy"
)

func oracleSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(Options{Spec: MustParsePredictorSpec("oracle")})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewWithEveryPredictorKind(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors; skipped in -short")
	}
	for _, kind := range []string{"ann", "oracle", "linear", "knn", "stump"} {
		sys, err := New(Options{Spec: MustParsePredictorSpec(kind)})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sys.PredictorName() != kind {
			t.Errorf("predictor name %q != kind %q", sys.PredictorName(), kind)
		}
		pred, oracle, err := sys.PredictBestSize("matrix")
		if err != nil {
			t.Fatalf("%v: PredictBestSize: %v", kind, err)
		}
		if pred != 2 && pred != 4 && pred != 8 {
			t.Errorf("%v: predicted size %d not in design space", kind, pred)
		}
		if kind == "oracle" && pred != oracle {
			t.Errorf("oracle disagrees with itself: %d vs %d", pred, oracle)
		}
	}
	if _, err := New(Options{Spec: PredictorSpec{Members: []MemberSpec{{Kind: "bogus", Weight: 1}}}}); err == nil {
		t.Error("unknown predictor kind accepted")
	}
}

// TestNewZeroOptionsDefault pins the zero Options.Spec to the paper's
// predictor: New(Options{}) builds the bagged ANN, named and predicting
// exactly as an explicit "ann" spec does.
func TestNewZeroOptionsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN; skipped in -short")
	}
	def, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.PredictorName() != "ann" {
		t.Errorf("zero Options predictor %q, want ann", def.PredictorName())
	}
	explicit, err := New(Options{Spec: MustParsePredictorSpec("ann")})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kernels() {
		got, _, err := def.PredictBestSize(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := explicit.PredictBestSize(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: zero Options predicts %dKB, explicit ann spec %dKB", k.Name, got, want)
		}
	}
}

// The paper's headline claims must hold with the actual trained ANN, not
// just the oracle predictor the core tests use.
func TestANNExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the ANN and runs four systems; skipped in -short")
	}
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 1500
	res, err := sys.Experiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, opt, ec, prop := res.Base, res.Optimal, res.EnergyCentric, res.Proposed

	// Proposed: the lowest total energy of all four systems.
	for _, m := range []Metrics{base, opt, ec} {
		if prop.TotalEnergy() >= m.TotalEnergy() {
			t.Errorf("ANN proposed total %.0f not below %s %.0f",
				prop.TotalEnergy(), m.System, m.TotalEnergy())
		}
	}
	saving := 1 - prop.TotalEnergy()/base.TotalEnergy()
	t.Logf("ANN-driven saving vs base: %.1f%% (paper: 28%%)", 100*saving)
	if saving < 0.10 {
		t.Errorf("ANN-driven saving %.1f%% collapsed", 100*saving)
	}
	// Energy-centric: lowest dynamic, and (with the ANN, as in the paper)
	// total energy above the base system.
	for _, m := range []Metrics{base, opt, prop} {
		if ec.DynamicEnergy >= m.DynamicEnergy {
			t.Errorf("energy-centric dynamic %.0f not lowest (vs %s %.0f)",
				ec.DynamicEnergy, m.System, m.DynamicEnergy)
		}
	}
	if ec.TotalEnergy() <= opt.TotalEnergy() {
		t.Errorf("with the ANN, energy-centric total %.0f should exceed optimal %.0f (paper: +9%%)",
			ec.TotalEnergy(), opt.TotalEnergy())
	}
	// Proposed beats both ANN-driven comparisons on turnaround.
	if prop.TurnaroundCycles >= ec.TurnaroundCycles {
		t.Errorf("proposed turnaround %d not below energy-centric %d",
			prop.TurnaroundCycles, ec.TurnaroundCycles)
	}
	if prop.TurnaroundCycles >= opt.TurnaroundCycles {
		t.Errorf("proposed turnaround %d not below optimal %d",
			prop.TurnaroundCycles, opt.TurnaroundCycles)
	}
}

func TestSystemExperimentAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped in -short")
	}
	sys := oracleSystem(t)
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 800
	res, err := sys.Experiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := FormatFigures(res)
	for _, want := range []string{
		"Figure 6", "Figure 7", "base", "optimal", "energy-centric", "proposed",
		"total-energy reduction",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunSystemNames(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(200, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"base", "optimal", "energy-centric", "proposed", "proposed-noEadv"} {
		m, err := sys.RunSystem(name, jobs, SimConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Completed != len(jobs) {
			t.Errorf("%s: completed %d of %d", name, m.Completed, len(jobs))
		}
		if m.System != name {
			t.Errorf("metrics name %q, want %q", m.System, name)
		}
	}
	if _, err := sys.RunSystem("nope", jobs, SimConfig{}); err == nil {
		t.Error("unknown system name accepted")
	}
}

func TestEadvAblationChangesBehaviour(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(600, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	withEadv, err := sys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := sys.RunSystem("proposed-noEadv", jobs, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if withEadv.StallDecisions == without.StallDecisions &&
		withEadv.NonBestPlacements == without.NonBestPlacements {
		t.Error("disabling E_adv changed nothing; ablation is vacuous")
	}
	// The greedy variant must not deliberately stall once knowledge exists;
	// its deliberate-stall count should be well below the full system's.
	if without.StallDecisions > withEadv.StallDecisions {
		t.Errorf("no-Eadv variant stalled more (%d) than the full system (%d)",
			without.StallDecisions, withEadv.StallDecisions)
	}
}

// Regression: RunSystem must not drop caller-set scheduling flags when it
// fills in the default machine.
func TestRunSystemPreservesRealtimeFlags(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.ScenarioWorkload(MustParseScenarioSpec("uniform;prio=uniform:3"), 500, 1.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunSystem("proposed", jobs, SimConfig{
		PriorityScheduling: true,
		Preemptive:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preemptions == 0 {
		t.Error("preemptive flag lost through RunSystem defaults")
	}
	if m.Completed != len(jobs) {
		t.Errorf("completed %d of %d", m.Completed, len(jobs))
	}
}

func TestIncludeTelecomExtendsPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("recharacterizes 20 kernels; skipped in -short")
	}
	sys, err := New(Options{Spec: MustParsePredictorSpec("oracle"), IncludeTelecom: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Eval.Records); got != 20 {
		t.Fatalf("extended eval pool has %d records, want 20", got)
	}
	if got := len(sys.Train.Records); got != 20*6 {
		t.Fatalf("extended train pool has %d records, want 120", got)
	}
	// The telecom kernels must be schedulable end to end.
	pred, oracle, err := sys.PredictBestSize("viterb")
	if err != nil {
		t.Fatal(err)
	}
	if pred != oracle {
		t.Errorf("oracle disagrees with itself: %d vs %d", pred, oracle)
	}
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 400
	res, err := sys.Experiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposed.Completed != cfg.Arrivals {
		t.Errorf("proposed completed %d of %d over the extended population",
			res.Proposed.Completed, cfg.Arrivals)
	}
}

func TestMultiDomainANNOption(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two ensembles; skipped in -short")
	}
	// Validation: requires IncludeTelecom + the ann predictor.
	if _, err := New(Options{MultiDomainANN: true}); err == nil {
		t.Error("MultiDomainANN without IncludeTelecom accepted")
	}
	if _, err := New(Options{Spec: MustParsePredictorSpec("oracle"), IncludeTelecom: true, MultiDomainANN: true}); err == nil {
		t.Error("MultiDomainANN with non-ANN predictor accepted")
	}
	sys, err := New(Options{IncludeTelecom: true, MultiDomainANN: true})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range sys.Eval.Records {
		got, err := sys.Pred.PredictSizeKB(sys.Eval.Records[i].Features)
		if err != nil {
			t.Fatal(err)
		}
		if got == sys.Eval.Records[i].BestSizeKB() {
			hits++
		}
	}
	acc := float64(hits) / float64(len(sys.Eval.Records))
	t.Logf("multi-domain facade accuracy: %.2f", acc)
	if acc < 0.5 {
		t.Errorf("multi-domain accuracy %.2f too low", acc)
	}
}

func TestWithL2ChangesGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("recharacterizes the suite; skipped in -short")
	}
	l1, err := New(Options{Spec: MustParsePredictorSpec("oracle")})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := New(Options{Spec: MustParsePredictorSpec("oracle"), WithL2: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(s *System) int {
		total := 0
		for i := range s.Eval.Records {
			total += s.Eval.Records[i].BestSizeKB()
		}
		return total
	}
	if sum(l2) > sum(l1) {
		t.Errorf("L2 extension shifted best sizes upward: %d -> %d", sum(l1), sum(l2))
	}
	// The L2-aware system must run the full experiment pipeline.
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 300
	if _, err := l2.Experiment(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDesignSpaceHelpers(t *testing.T) {
	if len(DesignSpace()) != 18 {
		t.Error("design space is not Table 1")
	}
	if BaseConfig().String() != "8KB_4W_64B" {
		t.Errorf("base config = %s", BaseConfig())
	}
	if len(Kernels()) != 16 {
		t.Error("kernel suite incomplete")
	}
	if _, err := KernelByName("matrix"); err != nil {
		t.Error(err)
	}
	table := FormatDesignSpace()
	if !strings.Contains(table, "8KB_4W_64B") || !strings.Contains(table, "2KB_1W_16B") {
		t.Error("design-space table incomplete")
	}
}

func TestWorkloadFacade(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(100, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 100 {
		t.Errorf("workload has %d jobs", len(jobs))
	}
	if _, err := sys.Workload(100, 0, 1); err == nil {
		t.Error("zero utilization accepted")
	}
}

func TestPredictBestSizeUnknownKernel(t *testing.T) {
	sys := oracleSystem(t)
	if _, _, err := sys.PredictBestSize("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFormatPerApp(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(200, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Attribution must partition the busy (non-idle, non-overhead) energy.
	var attributed float64
	runs := 0
	for app, e := range m.PerAppEnergy {
		attributed += e
		runs += m.PerAppRuns[app]
	}
	busy := m.DynamicEnergy + m.StaticEnergy + m.CoreEnergy
	if diff := attributed - busy; diff > 1e-6*busy || diff < -1e-6*busy {
		t.Errorf("per-app energy %v does not partition busy energy %v", attributed, busy)
	}
	if runs != m.Completed {
		t.Errorf("per-app runs %d != completed %d", runs, m.Completed)
	}
	out := FormatPerApp(sys, m)
	for _, want := range []string{"per-benchmark energy", "nJ/run"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatPerApp missing %q", want)
		}
	}
	// Every kernel that ran must appear by name, not app-N.
	if strings.Contains(out, "app-") {
		t.Errorf("FormatPerApp fell back to numeric app ids:\n%s", out)
	}
}

func TestFormatSchedule(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(60, 0.6, 31)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunSystem("proposed", jobs, SimConfig{RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSchedule(sys, m, 10)
	if !strings.Contains(out, "core") || !strings.Contains(out, "[profiling]") {
		t.Errorf("timeline missing expected content:\n%s", out)
	}
	if !strings.Contains(out, "more") {
		t.Errorf("timeline truncation marker missing for %d events", len(m.Schedule))
	}
}

func TestFormatMetricsMentionsEverything(t *testing.T) {
	sys := oracleSystem(t)
	jobs, err := sys.Workload(150, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMetrics(m)
	for _, want := range []string{"makespan", "turnaround", "idle", "dynamic", "static", "profiling", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatMetrics missing %q:\n%s", want, out)
		}
	}
}

// prewarm saves each DB in dir under the content key New looks its variant
// pool up by.
func prewarm(t *testing.T, dir string, pools map[*DB][]characterize.Variant) {
	t.Helper()
	for db, variants := range pools {
		key, err := characterize.CacheKey(variants, energy.NewDefault(), characterize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := characterize.SaveCached(dir, key, db); err != nil {
			t.Fatal(err)
		}
	}
}

// processDBs returns the process-wide canonical and augmented DBs.
func processDBs(t *testing.T) (eval, train *DB) {
	t.Helper()
	eval, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	train, err = characterize.Augmented()
	if err != nil {
		t.Fatal(err)
	}
	return eval, train
}

// TestNewWarmStartFromCache is the end-to-end acceptance test for the
// persistent characterization cache: with a pre-warmed cache directory,
// New must load both DBs from disk (Setup flags set). That a disk load
// characterizes nothing is pinned by internal/characterize's
// TestTierDiskWarmHit.
//
// The ann case runs the default predictor on a cached training pool that
// is perturbed but still consistent (the records' feature vectors are
// reversed), so a bag trained on any other copy of the pool votes
// differently: New's bag must be the one trained on the Train DB it
// loaded.
func TestNewWarmStartFromCache(t *testing.T) {
	eval, train := processDBs(t)
	perturbed := &DB{Records: slices.Clone(train.Records)}
	for i := range perturbed.Records {
		perturbed.Records[i].Features = train.Records[len(train.Records)-1-i].Features
	}
	for _, tc := range []struct {
		name  string
		spec  PredictorSpec
		train *DB
	}{
		{"oracle", MustParsePredictorSpec("oracle"), train},
		{"ann", PredictorSpec{}, perturbed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec.IsZero() && testing.Short() {
				t.Skip("trains two ANN bags; skipped in -short")
			}
			dir := t.TempDir()
			prewarm(t, dir, map[*DB][]characterize.Variant{
				eval:     characterize.CanonicalVariants(),
				tc.train: characterize.AugmentedVariants(),
			})
			sys, err := New(Options{Spec: tc.spec, CacheDir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Setup.EvalFromCache || !sys.Setup.TrainFromCache {
				t.Fatalf("warm start not detected: %+v", sys.Setup)
			}
			if !reflect.DeepEqual(sys.Train, tc.train) {
				t.Fatal("New did not load the cached training pool")
			}
			if _, _, err := sys.PredictBestSize("matrix"); err != nil {
				t.Fatalf("warm-started system does not serve predictions: %v", err)
			}
			got, ok := sys.Pred.(*ann.SizePredictor)
			if !ok {
				return
			}
			want, _, err := ann.TrainSizePredictor(sys.Train, ann.PredictorConfig{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for i := range sys.Train.Records {
				f := sys.Train.Records[i].Features
				gv, err := got.MemberVotes(f)
				if err != nil {
					t.Fatal(err)
				}
				wv, err := want.MemberVotes(f)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gv, wv) {
					t.Fatalf("record %d: New's bag votes %v, a bag trained on sys.Train votes %v", i, gv, wv)
				}
			}
		})
	}
}

// TestANNBagShared pins where one trained bag is shared: across every
// canonical no-dir New in the process, and across repeated hot-swaps to an
// ann-containing spec on one System.
func TestANNBagShared(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two ANN bags; skipped in -short")
	}
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Spec: MustParsePredictorSpec("ann"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != b.Pred {
		t.Error("two canonical Systems trained separate bags")
	}

	// Seed 7 is not canonical: the System owns its bag, untrained until
	// the first swap asks for it.
	sys, err := New(Options{Spec: MustParsePredictorSpec("oracle"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.WithPredictorSpec(MustParsePredictorSpec("ann"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.WithPredictorSpec(MustParsePredictorSpec("ann"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Pred != second.Pred {
		t.Error("two ann hot-swaps on one System trained separate bags")
	}
	if first.Pred == a.Pred {
		t.Error("a seed-7 System shares the canonical seed-42 bag")
	}
}

// TestSplitDomainsMatchesFreshPools: the multi-domain predictor splits the
// extended training pool instead of characterizing each domain again, so
// both halves must equal fresh characterizations of their variant lists.
func TestSplitDomainsMatchesFreshPools(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes 240 variants; skipped in -short")
	}
	em := energy.NewDefault()
	extended, err := characterize.CharacterizeWithOptions(characterize.AugmentedExtendedVariants(), em, characterize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, tele := splitDomains(extended)

	telecom := map[string]bool{}
	for _, v := range characterize.TelecomVariants() {
		telecom[v.Kernel] = true
	}
	var autoVariants, teleVariants []characterize.Variant
	for _, v := range characterize.AugmentedExtendedVariants() {
		if telecom[v.Kernel] {
			teleVariants = append(teleVariants, v)
		} else {
			autoVariants = append(autoVariants, v)
		}
	}
	for _, tc := range []struct {
		name     string
		got      *DB
		variants []characterize.Variant
	}{{"automotive", auto, autoVariants}, {"telecom", tele, teleVariants}} {
		want, err := characterize.CharacterizeWithOptions(tc.variants, em, characterize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.got, want) {
			t.Errorf("%s pool split from the extended pool differs from a fresh characterization", tc.name)
		}
	}
}

// TestResolveCacheDir pins the -cache-dir flag vocabulary shared by every
// CLI.
func TestResolveCacheDir(t *testing.T) {
	for _, off := range []string{"", "off", "none"} {
		dir, err := ResolveCacheDir(off)
		if err != nil || dir != "" {
			t.Errorf("ResolveCacheDir(%q) = %q, %v; want disabled", off, dir, err)
		}
	}
	dir, err := ResolveCacheDir("auto")
	if err != nil {
		t.Fatalf("ResolveCacheDir(auto): %v", err)
	}
	if dir == "" {
		t.Error("auto resolved to the disabled cache")
	}
	dir, err = ResolveCacheDir("/tmp/explicit")
	if err != nil || dir != "/tmp/explicit" {
		t.Errorf("explicit path mangled: %q, %v", dir, err)
	}
}

// TestFlagTextRoundTrip covers the flag.Value / encoding.TextMarshaler
// surface that cmd/* bind via flag.TextVar: every valid vocabulary word
// round-trips, and out-of-range values refuse to marshal.
func TestFlagTextRoundTrip(t *testing.T) {
	for _, name := range []string{"ann", "oracle", "linear", "knn", "stump", "tree"} {
		want := MustParsePredictorSpec(name)
		text, err := want.MarshalText()
		if err != nil || string(text) != name {
			t.Fatalf("%v.MarshalText = %q, %v", want, text, err)
		}
		var got PredictorSpec
		if err := got.UnmarshalText(text); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("predictor round trip %q -> %v, err %v", text, got, err)
		}
		var viaSet PredictorSpec
		if err := viaSet.Set(string(text)); err != nil || !reflect.DeepEqual(viaSet, want) {
			t.Errorf("predictor Set(%q) -> %v, err %v", text, viaSet, err)
		}
	}
	var k PredictorSpec
	if err := k.Set("nosuch"); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, err := (PredictorSpec{}).MarshalText(); err == nil {
		t.Error("empty predictor spec marshaled")
	}
}

// TestParseFaultPlanFacade spot-checks the facade's fault-plan parser and
// the Options-level default inheritance.
func TestParseFaultPlanFacade(t *testing.T) {
	if p, err := ParseFaultPlan("off"); err != nil || p.Enabled() {
		t.Errorf("off -> %+v, err %v", p, err)
	}
	p, err := ParseFaultPlan("mttf=5e6,recover=1e5,seed=9")
	if err != nil || !p.Enabled() || p.TransientMTTF != 5_000_000 {
		t.Errorf("parsed plan %+v, err %v", p, err)
	}
	if _, err := ParseFaultPlan("noise=2"); err == nil {
		t.Error("out-of-range noise accepted")
	}
	if _, err := New(Options{Spec: MustParsePredictorSpec("oracle"), Faults: FaultPlan{CounterNoise: 7}}); err == nil {
		t.Error("New accepted an invalid fault plan")
	}
}
