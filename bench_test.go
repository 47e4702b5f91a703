package hetsched

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section VI) plus the ablations called out in DESIGN.md. Each
// benchmark measures the cost of the computation and, via b.ReportMetric
// (called after the timed loop — ResetTimer deletes user metrics), emits the
// figure's numbers so `go test -bench=.` serves as the reproduction run.
// EXPERIMENTS.md records the paper-vs-measured values.

import (
	"sync"
	"testing"

	"hetsched/internal/ann"
	"hetsched/internal/cache"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/tuner"
	"hetsched/internal/vm"
)

// benchArrivals keeps multi-system simulations tractable inside benchmark
// iterations while staying deep enough for stable normalized figures; the
// paper-scale 5000-arrival run is what cmd/hmsim executes.
const benchArrivals = 1500

var (
	benchOnce   sync.Once
	benchSys    *System // ANN-driven system (the paper's)
	benchOracle *System // oracle-driven system (ablation upper bound)
	benchRes    *ExperimentResult
	benchErr    error
)

func benchSetup(b *testing.B) (*System, *System, *ExperimentResult) {
	b.Helper()
	benchOnce.Do(func() {
		benchSys, benchErr = New(Options{})
		if benchErr != nil {
			return
		}
		benchOracle, benchErr = New(Options{Spec: MustParsePredictorSpec("oracle")})
		if benchErr != nil {
			return
		}
		cfg := DefaultExperimentConfig()
		cfg.Arrivals = benchArrivals
		benchRes, benchErr = benchSys.Experiment(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSys, benchOracle, benchRes
}

// ----------------------------------------------------------------------
// Table 1: the 18-configuration design space, swept end to end — a kernel
// trace replayed through every configuration under the energy model.
// ----------------------------------------------------------------------

func BenchmarkTable1DesignSpace(b *testing.B) {
	k, err := eembc.ByName("tblook")
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := eembc.Record(k, eembc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	em := energy.NewDefault()
	space := cache.DesignSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bestE float64
		var best cache.Config
		for _, cfg := range space {
			l1, err := cache.NewL1(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range tr.Accesses {
				l1.Access(a.Addr, a.Write)
			}
			s := l1.Stats()
			cycles := em.ExecCycles(0, cfg, s.Misses)
			e := em.Total(cfg, s.Hits, s.Misses, cycles).Total
			if best == (cache.Config{}) || e < bestE {
				best, bestE = cfg, e
			}
		}
		if !best.Valid() {
			b.Fatal("sweep found no best config")
		}
	}
	b.ReportMetric(float64(len(space)), "configs")
}

// ----------------------------------------------------------------------
// Figure 3 / Section IV.D: the bagged ANN predictor — training quality and
// inference cost. The paper reports < 2% energy degradation vs the optimal
// cache size; the measured degradation is emitted as a metric.
// ----------------------------------------------------------------------

func BenchmarkFig3ANNPrediction(b *testing.B) {
	sys, _, _ := benchSetup(b)
	db := sys.Eval
	var degraded, optimal float64
	hits := 0
	for i := range db.Records {
		r := &db.Records[i]
		size, err := sys.Pred.PredictSizeKB(r.Features)
		if err != nil {
			b.Fatal(err)
		}
		if size == r.BestSizeKB() {
			hits++
		}
		chosen, err := r.BestConfigForSize(size)
		if err != nil {
			b.Fatal(err)
		}
		degraded += chosen.Energy.Total
		optimal += r.BestConfig().Energy.Total
	}
	// The bag memoizes its answers, so the timed loop measures a memo hit;
	// BenchmarkSizePredict in internal/ann times the member pass itself.
	features := db.Records[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Pred.PredictSizeKB(features); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(degraded/optimal-1), "energy-degradation-%")
	b.ReportMetric(float64(hits)/float64(len(db.Records)), "accuracy")
}

// ----------------------------------------------------------------------
// Figure 4: the energy model itself.
// ----------------------------------------------------------------------

func BenchmarkFig4EnergyModel(b *testing.B) {
	em := energy.NewDefault()
	cfg := cache.BaseConfig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Total(cfg, 100_000, 1_000, 300_000)
	}
	b.ReportMetric(em.MissEnergy(cfg), "nJ/miss")
	b.ReportMetric(em.Cacti().HitEnergy(cfg), "nJ/hit")
}

// ----------------------------------------------------------------------
// Figure 5 / Section VI: the tuning heuristic. The paper: minimum 3 and
// maximum 9 configurations explored, observed <= 6, out of 18.
// ----------------------------------------------------------------------

func BenchmarkFig5TuningHeuristic(b *testing.B) {
	db, err := characterize.Default()
	if err != nil {
		b.Fatal(err)
	}
	runSuite := func() (explored int, worst int) {
		for i := range db.Records {
			r := &db.Records[i]
			for _, size := range cache.Sizes() {
				tn := tuner.MustNew(size)
				for !tn.Done() {
					cfg, _ := tn.Next()
					cr, err := r.Result(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := tn.Observe(cfg, cr.Energy.Total); err != nil {
						b.Fatal(err)
					}
				}
				n := len(tn.Explored())
				explored += n
				if n > worst {
					worst = n
				}
			}
		}
		return explored, worst
	}
	var explored, worst int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explored, worst = runSuite()
	}
	b.ReportMetric(float64(explored)/float64(len(db.Records)*len(cache.Sizes())), "avg-explored")
	b.ReportMetric(float64(worst), "max-explored")
}

// ----------------------------------------------------------------------
// Figure 6: idle/dynamic/total energy of the three systems normalized to
// the base system, over the uniform-arrival workload.
// ----------------------------------------------------------------------

func BenchmarkFig6EnergyVsBase(b *testing.B) {
	sys, _, res := benchSetup(b)
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Experiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Figure6() {
		b.ReportMetric(r.Total, r.System+"-total")
		b.ReportMetric(r.Dynamic, r.System+"-dyn")
	}
	saving := 1 - res.Proposed.TotalEnergy()/res.Base.TotalEnergy()
	b.ReportMetric(100*saving, "proposed-saving-%")
}

// ----------------------------------------------------------------------
// Figure 7: cycles and energy normalized to the optimal system.
// ----------------------------------------------------------------------

func BenchmarkFig7VsOptimal(b *testing.B) {
	sys, _, res := benchSetup(b)
	jobs, err := sys.Workload(400, 0.9, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSystem("proposed", jobs, SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Figure7() {
		b.ReportMetric(r.Cycles, r.System+"-cycles")
		b.ReportMetric(r.Total, r.System+"-total")
	}
}

// ----------------------------------------------------------------------
// Section VI: profiling overhead (< 0.5% of total energy in the paper).
// ----------------------------------------------------------------------

func BenchmarkProfilingOverhead(b *testing.B) {
	_, _, res := benchSetup(b)
	k, err := eembc.ByName("a2time")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The profiling pipeline: execute once with counters + trace.
		if _, _, err := eembc.Record(k, eembc.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*core.ProfilingOverheadFraction(res.Proposed), "overhead-%")
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md section 4).
// ----------------------------------------------------------------------

// BenchmarkAblationEadv quantifies the energy-advantageous decision by
// comparing the proposed system against always-stall (energy-centric) and
// never-stall (proposed-noEadv) fixed strategies — the hypothesis test of
// Section VI's closing observation.
func BenchmarkAblationEadv(b *testing.B) {
	sys, _, _ := benchSetup(b)
	jobs, err := sys.Workload(benchArrivals, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	totals := map[string]float64{}
	for _, name := range []string{"proposed", "proposed-noEadv", "energy-centric"} {
		m, err := sys.RunSystem(name, jobs, SimConfig{})
		if err != nil {
			b.Fatal(err)
		}
		totals[name] = m.TotalEnergy()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSystem("proposed", jobs, SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(totals["proposed-noEadv"]/totals["proposed"], "neverstall/proposed")
	b.ReportMetric(totals["energy-centric"]/totals["proposed"], "alwaysstall/proposed")
}

// BenchmarkAblationBagging sweeps the ensemble size (paper: 30).
func BenchmarkAblationBagging(b *testing.B) {
	train, err := characterize.Augmented()
	if err != nil {
		b.Fatal(err)
	}
	eval, err := characterize.Default()
	if err != nil {
		b.Fatal(err)
	}
	members := []int{1, 5, 30}
	accs := map[int]float64{}
	for _, m := range members {
		pred, _, err := ann.TrainSizePredictor(train, ann.PredictorConfig{
			Seed:     42,
			Ensemble: ann.EnsembleConfig{Members: m},
		})
		if err != nil {
			b.Fatal(err)
		}
		hits := 0
		for i := range eval.Records {
			size, err := pred.PredictSizeKB(eval.Records[i].Features)
			if err != nil {
				b.Fatal(err)
			}
			if size == eval.Records[i].BestSizeKB() {
				hits++
			}
		}
		accs[m] = float64(hits) / float64(len(eval.Records))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ann.TrainSizePredictor(train, ann.PredictorConfig{
			Seed:     42,
			Ensemble: ann.EnsembleConfig{Members: 5},
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range members {
		b.ReportMetric(accs[m], "accuracy-"+itoa(m))
	}
}

// BenchmarkAblationPredictors compares total proposed-system energy under
// every predictor family (the future-work comparison of Section VIII).
func BenchmarkAblationPredictors(b *testing.B) {
	_, oracleSys, _ := benchSetup(b)
	jobs, err := oracleSys.Workload(benchArrivals, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	kinds := []string{"oracle", "ann", "linear", "knn", "stump", "tree"}
	energies := map[string]float64{}
	for _, kind := range kinds {
		sys, err := New(Options{Spec: MustParsePredictorSpec(kind)})
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys.RunSystem("proposed", jobs, SimConfig{})
		if err != nil {
			b.Fatal(err)
		}
		energies[kind] = m.TotalEnergy() / 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleSys.RunSystem("proposed", jobs, SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, kind := range kinds {
		b.ReportMetric(energies[kind], "mJ-"+kind)
	}
}

// BenchmarkAblationProfilingCores compares dual (Core 3+4) against single
// (Core 4 only) profiling-core operation.
func BenchmarkAblationProfilingCores(b *testing.B) {
	sys, _, _ := benchSetup(b)
	jobs, err := sys.Workload(benchArrivals, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	dual, err := sys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		b.Fatal(err)
	}
	single := core.DefaultSimConfig()
	single.SingleProfilingCore = true
	sm, err := sys.RunSystem("proposed", jobs, single)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSystem("proposed", jobs, single); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sm.TotalEnergy()/dual.TotalEnergy(), "single/dual-energy")
	b.ReportMetric(float64(sm.TurnaroundCycles)/float64(dual.TurnaroundCycles), "single/dual-cycles")
}

// BenchmarkAblationLoad sweeps the offered load: the proposed system's
// advantage must persist from light load to saturation.
func BenchmarkAblationLoad(b *testing.B) {
	sys, _, _ := benchSetup(b)
	utils := []float64{0.5, 0.75, 0.9}
	savings := map[float64]float64{}
	for _, util := range utils {
		cfg := DefaultExperimentConfig()
		cfg.Arrivals = 800
		cfg.Utilization = util
		res, err := sys.Experiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		savings[util] = 100 * (1 - res.Proposed.TotalEnergy()/res.Base.TotalEnergy())
	}
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Experiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, util := range utils {
		b.ReportMetric(savings[util], "saving%-u"+ftoa(util))
	}
}

// ----------------------------------------------------------------------
// Future-work extensions (Section VIII).
// ----------------------------------------------------------------------

// BenchmarkExtensionL2 contrasts the paper's L1-only energy model with the
// two-level hierarchy extension: proposed-system savings under both ground
// truths.
func BenchmarkExtensionL2(b *testing.B) {
	l2sys, err := New(Options{Spec: MustParsePredictorSpec("oracle"), WithL2: true})
	if err != nil {
		b.Fatal(err)
	}
	_, oracleSys, _ := benchSetup(b)
	cfg := DefaultExperimentConfig()
	cfg.Arrivals = 800
	l1res, err := oracleSys.Experiment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l2res, err := l2sys.Experiment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l2sys.Experiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-l1res.Proposed.TotalEnergy()/l1res.Base.TotalEnergy()), "saving%-L1only")
	b.ReportMetric(100*(1-l2res.Proposed.TotalEnergy()/l2res.Base.TotalEnergy()), "saving%-withL2")
}

// BenchmarkExtensionRealtime measures the priority+preemption extension: a
// mixed-criticality overload where the extension rescues high-priority
// deadlines at a bounded energy cost. The miss rates are the high class's.
func BenchmarkExtensionRealtime(b *testing.B) {
	_, sys, _ := benchSetup(b)
	spec := MustParseScenarioSpec("uniform;slo=deadline:slack=3,classes=hi@0.5")
	jobs, err := sys.ScenarioWorkload(spec, 1000, 1.2, 13)
	if err != nil {
		b.Fatal(err)
	}
	fifo, err := sys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := sys.RunSystem("proposed", jobs, SimConfig{PriorityScheduling: true, Preemptive: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSystem("proposed", jobs, SimConfig{PriorityScheduling: true, Preemptive: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fifo.ClassMissRate("hi"), "missrate-fifo")
	b.ReportMetric(rt.ClassMissRate("hi"), "missrate-preemptive")
	b.ReportMetric(rt.TotalEnergy()/fifo.TotalEnergy(), "energy-ratio")
}

// BenchmarkExtensionANNOverhead evaluates the future-work question "what
// overhead does the machine learning algorithm introduce": the profiling
// latency (counter collection + ANN inference) is swept from free to
// pathological and the proposed system's total energy is re-measured.
func BenchmarkExtensionANNOverhead(b *testing.B) {
	sys, _, _ := benchSetup(b)
	jobs, err := sys.Workload(benchArrivals, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	overheads := []uint64{0, 2_000, 100_000, 2_000_000}
	totals := map[uint64]float64{}
	for _, oh := range overheads {
		cfg := core.DefaultSimConfig()
		cfg.ProfilingCycles = oh
		m, err := sys.RunSystem("proposed", jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		totals[oh] = m.TotalEnergy()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSystem("proposed", jobs, SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	base := totals[0]
	for _, oh := range overheads[1:] {
		b.ReportMetric(100*(totals[oh]/base-1), "energy%+oh"+itoa(int(oh/1000))+"k")
	}
}

// BenchmarkExtensionContention sweeps the shared-memory-bus contention
// factor: the proposed system's saving must survive bus pressure.
func BenchmarkExtensionContention(b *testing.B) {
	sys, _, _ := benchSetup(b)
	jobs, err := sys.Workload(800, 0.9, 3)
	if err != nil {
		b.Fatal(err)
	}
	factors := []float64{0, 0.5, 1.0}
	ratios := map[float64]float64{}
	for _, f := range factors {
		cfg := core.DefaultSimConfig()
		cfg.MemContentionFactor = f
		prop, err := sys.RunSystem("proposed", jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		baseCfg := cfg
		base, err := sys.RunSystem("base", jobs, baseCfg)
		if err != nil {
			b.Fatal(err)
		}
		ratios[f] = prop.TotalEnergy() / base.TotalEnergy()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSimConfig()
		cfg.MemContentionFactor = 1.0
		if _, err := sys.RunSystem("proposed", jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range factors {
		b.ReportMetric(ratios[f], "prop/base-f"+ftoa(f))
	}
}

// BenchmarkExtensionSharedL2 measures shared-L2 interference (the second
// half of the future-work "private and shared caches"): a cache-friendly
// victim's off-chip traffic with an idle neighbour versus with a thrashing
// aggressor sharing the L2.
func BenchmarkExtensionSharedL2(b *testing.B) {
	victimKernel, err := eembc.ByName("tblook")
	if err != nil {
		b.Fatal(err)
	}
	aggressorKernel, err := eembc.ByName("cacheb")
	if err != nil {
		b.Fatal(err)
	}
	_, victimTrace, err := eembc.Record(victimKernel, eembc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	_, aggressorTrace, err := eembc.Record(aggressorKernel, eembc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	toShared := func(t []vmAccess) []cache.TraceAccess {
		out := make([]cache.TraceAccess, len(t))
		for i, a := range t {
			// Disjoint address spaces per core, as in distinct processes.
			out[i] = cache.TraceAccess{Addr: a.Addr, Write: a.Write}
		}
		return out
	}
	victim := toShared(victimTrace.Accesses)
	aggressor := toShared(aggressorTrace.Accesses)
	for i := range aggressor {
		aggressor[i].Addr += 1 << 20
	}
	l1 := cache.Config{SizeKB: 4, Ways: 1, LineBytes: 32}
	l2 := cache.L2Config{SizeKB: 16, Ways: 4, LineBytes: 32}

	run := func(neighbour []cache.TraceAccess) uint64 {
		h, err := cache.NewSharedHierarchy(2, l1, l2)
		if err != nil {
			b.Fatal(err)
		}
		_, off, err := h.InterleaveTraces([][]cache.TraceAccess{victim, neighbour})
		if err != nil {
			b.Fatal(err)
		}
		return off[0]
	}
	alone := run(nil)
	contended := run(aggressor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(aggressor)
	}
	b.ReportMetric(float64(alone), "victim-offchip-alone")
	b.ReportMetric(float64(contended), "victim-offchip-contended")
}

// vmAccess aliases the trace element for the shared-L2 bench.
type vmAccess = vm.Access

// BenchmarkExtensionDVFS sweeps a uniform core frequency under the
// proposed scheduler — the intro's "voltage, frequency" configurability
// axis. Slower clocks cut V²-scaled core energy but dilate occupancy
// (static + idle grow): the race-to-idle trade-off, quantified.
func BenchmarkExtensionDVFS(b *testing.B) {
	_, sys, _ := benchSetup(b)
	jobs, err := sys.Workload(800, 0.6, 5)
	if err != nil {
		b.Fatal(err)
	}
	freqs := []float64{1.0, 0.8, 0.6}
	results := map[float64]Metrics{}
	for _, f := range freqs {
		cfg := core.DefaultSimConfig()
		cfg.CoreFreqs = []float64{f, f, f, f}
		m, err := sys.RunSystem("proposed", jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		results[f] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSimConfig()
		cfg.CoreFreqs = []float64{0.8, 0.8, 0.8, 0.8}
		if _, err := sys.RunSystem("proposed", jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	nominal := results[1.0]
	for _, f := range freqs[1:] {
		m := results[f]
		b.ReportMetric(m.TotalEnergy()/nominal.TotalEnergy(), "energy-f"+ftoa(f))
		b.ReportMetric(float64(m.TurnaroundCycles)/float64(nominal.TurnaroundCycles), "cycles-f"+ftoa(f))
	}
}

// BenchmarkExtensionPreload contrasts cold-start (runtime profiling +
// tuning) against the design-time pre-loaded profiling table of
// Section IV.B.
func BenchmarkExtensionPreload(b *testing.B) {
	_, sys, _ := benchSetup(b)
	jobs, err := sys.Workload(800, 0.8, 21)
	if err != nil {
		b.Fatal(err)
	}
	run := func(preload bool) Metrics {
		pol, _, err := core.NewPolicy("proposed")
		if err != nil {
			b.Fatal(err)
		}
		sim, err := core.NewSimulator(sys.Eval, sys.Energy, pol, sys.Pred, core.DefaultSimConfig())
		if err != nil {
			b.Fatal(err)
		}
		if preload {
			if err := sim.Preload(true); err != nil {
				b.Fatal(err)
			}
		}
		m, err := sim.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	cold := run(false)
	warm := run(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(true)
	}
	b.ReportMetric(warm.TotalEnergy()/cold.TotalEnergy(), "warm/cold-energy")
	b.ReportMetric(float64(cold.ProfilingRuns), "cold-profiling-runs")
	b.ReportMetric(float64(warm.ProfilingRuns), "warm-profiling-runs")
}

// BenchmarkExtensionClairvoyant bounds the headroom above the paper's
// system: a clairvoyant scheduler (oracle predictions + fully pre-loaded
// design-time knowledge, i.e. zero profiling and zero tuning) versus the
// cold-start ANN-driven proposed system.
func BenchmarkExtensionClairvoyant(b *testing.B) {
	annSys, oracleSys, _ := benchSetup(b)
	jobs, err := annSys.Workload(benchArrivals, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	cold, err := annSys.RunSystem("proposed", jobs, SimConfig{})
	if err != nil {
		b.Fatal(err)
	}
	clairvoyant := func() Metrics {
		pol, _, err := core.NewPolicy("proposed")
		if err != nil {
			b.Fatal(err)
		}
		sim, err := core.NewSimulator(oracleSys.Eval, oracleSys.Energy, pol,
			oracleSys.Pred, core.DefaultSimConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Preload(true); err != nil {
			b.Fatal(err)
		}
		m, err := sim.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	perfect := clairvoyant()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clairvoyant()
	}
	b.ReportMetric(perfect.TotalEnergy()/cold.TotalEnergy(), "clairvoyant/cold-energy")
	b.ReportMetric(float64(perfect.TurnaroundCycles)/float64(cold.TurnaroundCycles), "clairvoyant/cold-cycles")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func ftoa(v float64) string {
	whole := int(v)
	frac := int(v*100) % 100
	return itoa(whole) + "." + itoa(frac/10) + itoa(frac%10)
}
