// Package hetsched reproduces "Dynamic Scheduling on Heterogeneous
// Multicores" (Edun, Vazquez, Gordon-Ross, Stitt; DATE 2019): an
// energy-aware dynamic scheduler for a heterogeneous quad-core embedded
// system with runtime-configurable L1 caches, driven by a bagged ANN that
// predicts each application's best cache size from profiled hardware
// counters, a resumable cache-tuning heuristic for non-best cores, and an
// energy-advantageous stall-or-migrate decision.
//
// The package is a facade over the full reproduction stack:
//
//   - internal/isa, internal/vm     — embedded CPU substrate (SimpleScalar stand-in)
//   - internal/eembc                — 20 synthetic EEMBC-like kernels (16 automotive + 4 telecom)
//   - internal/cache                — configurable L1/L2 cache models (Table 1)
//   - internal/cacti, internal/energy — 0.18 µm energy models (Figure 4)
//   - internal/characterize         — per-configuration ground truth
//   - internal/stats, internal/ann  — execution statistics + bagged ANN (Figure 3)
//   - internal/tuner                — cache tuning heuristic (Figure 5)
//   - internal/core                 — the scheduler and the four compared systems
//   - internal/mlbase               — future-work predictor baselines
//
// Typical use:
//
//	sys, err := hetsched.New(hetsched.Options{}) // the paper's bagged ANN
//	...
//	res, err := sys.Experiment(hetsched.DefaultExperimentConfig())
//	fmt.Print(hetsched.FormatFigures(res))
package hetsched

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"

	"hetsched/internal/ann"
	"hetsched/internal/cache"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/trace"
	"hetsched/internal/tuner"
)

// Re-exported types: the public API speaks these names; the internal
// packages carry the implementations.
type (
	// CacheConfig is one L1 configuration (size, ways, line size).
	CacheConfig = cache.Config
	// Metrics aggregates one simulated system run.
	Metrics = core.Metrics
	// ExperimentResult holds the four systems' metrics over one workload.
	ExperimentResult = core.ExperimentResult
	// ExperimentConfig shapes a four-system comparison.
	ExperimentConfig = core.ExperimentConfig
	// SimConfig shapes the simulated machine.
	SimConfig = core.SimConfig
	// NormRow is one normalized figure row.
	NormRow = core.NormRow
	// Job is one benchmark arrival.
	Job = core.Job
	// Predictor predicts an application's best cache size.
	Predictor = core.Predictor
	// DB is the offline characterization database.
	DB = characterize.DB
	// Record is one benchmark variant's characterization.
	Record = characterize.Record
	// Variant names one benchmark variant (kernel + params) to
	// characterize — the unit the serving tier's content keys cover.
	Variant = characterize.Variant
	// Kernel is one synthetic benchmark.
	Kernel = eembc.Kernel
	// FaultPlan is a seeded fault-injection schedule (resilience
	// extension); the zero value is disabled and provably changes nothing.
	FaultPlan = fault.Plan
	// TraceRecorder collects the simulator's decision-audit events
	// (SimConfig.Trace / Options.Trace); see internal/trace.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded scheduling decision or lifecycle
	// transition.
	TraceEvent = trace.Event
)

// Trace event kinds, re-exported for callers constructing or filtering
// events through the facade (see internal/trace for the taxonomy).
const (
	TraceKindEnqueue  = trace.KindEnqueue
	TraceKindDispatch = trace.KindDispatch
	TraceKindProfile  = trace.KindProfile
	TraceKindPredict  = trace.KindPredict
	TraceKindTune     = trace.KindTune
	TraceKindStall    = trace.KindStall
	TraceKindFault    = trace.KindFault
	TraceKindKill     = trace.KindKill
	TraceKindComplete = trace.KindComplete
	TraceKindSLO      = trace.KindSLO
	// The cluster dispatcher's routing audit.
	TraceKindRoute = trace.KindRoute
	TraceKindSteal = trace.KindSteal
)

// NewTraceRecorder returns an unbounded decision-audit recorder to attach
// via Options.Trace or SimConfig.Trace.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewTraceRing returns a bounded decision-audit recorder that retains only
// the newest capacity events.
func NewTraceRing(capacity int) *TraceRecorder { return trace.NewRing(capacity) }

// WriteTraceFile writes recorded events to path, choosing the format by
// extension: .json is Chrome trace-event JSON (open in Perfetto), anything
// else the flat CSV. This is the CLIs' shared -trace implementation.
func WriteTraceFile(path string, events []TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteChrome(f, events)
	} else {
		err = trace.WriteCSV(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ParseFaultPlan parses the CLIs' shared -faults flag vocabulary, e.g.
// "mttf=5e6,recover=1e5,permanent=5e7,stuck=2e7,noise=0.05,seed=1" — or
// "off"/"" for the disabled zero plan.
func ParseFaultPlan(s string) (FaultPlan, error) { return fault.ParseSpec(s) }

// DefaultExperimentConfig mirrors the paper's setup: 5000 uniformly
// distributed arrivals on the Figure 1 quad-core machine.
func DefaultExperimentConfig() ExperimentConfig { return core.DefaultExperimentConfig() }

// DesignSpace returns a fresh copy of the 18 cache configurations of
// Table 1, which the caller may modify.
func DesignSpace() []CacheConfig { return slices.Clone(cache.DesignSpace()) }

// BaseConfig is the profiling/base configuration 8KB_4W_64B.
func BaseConfig() CacheConfig { return cache.BaseConfig }

// Kernels returns the sixteen automotive benchmarks of the canonical
// suite.
func Kernels() []Kernel { return eembc.Suite() }

// KernelByName returns one benchmark by its EEMBC-style name.
func KernelByName(name string) (Kernel, error) { return eembc.ByName(name) }

// Options configures New.
type Options struct {
	// Spec selects the best-core predictor: a single kind or a weighted
	// online-learning ensemble (see ParsePredictorSpec). The zero value
	// is DefaultPredictorSpec, the paper's bagged ANN.
	Spec PredictorSpec
	// Seed drives ANN training and splits (default 42).
	Seed int64
	// EnergyParams overrides the energy-model constants (nil = defaults).
	EnergyParams *energy.Params
	// WithL2 characterizes under the two-level hierarchy (future-work
	// extension): L1 misses that hit the private L2 cost far less than
	// off-chip accesses, shifting best sizes toward smaller caches.
	WithL2 bool
	// IncludeTelecom adds the second application domain (the four EEMBC
	// telecom-like kernels) to both the evaluation and training pools —
	// the multi-domain setting of Section IV.D. Requires recharacterizing,
	// so setup is slower than the cached automotive-only default.
	IncludeTelecom bool
	// MultiDomainANN (requires IncludeTelecom and the "ann" spec) trains one
	// specialized ensemble per application domain with a nearest-sample
	// router, instead of a single ANN over the mixed population —
	// Section IV.D's "multiple ANNs each ... specialized for a different
	// domain".
	MultiDomainANN bool
	// Workers bounds the setup worker pools: characterization simulation
	// jobs and ANN member training. 0 means runtime.GOMAXPROCS(0); the
	// count never changes results.
	Workers int
	// CacheDir enables the persistent characterization cache: DBs are
	// content-keyed (design space, energy constants, variant list) and
	// stored under this directory, so repeated runs skip kernel replay
	// entirely. Empty disables; characterize.DefaultCacheDir() is the
	// conventional location.
	CacheDir string
	// Faults is the system's default fault-injection plan: every
	// Experiment/RunSystem call whose own SimConfig carries a disabled
	// plan inherits it. The zero value (disabled) leaves all outputs
	// bit-identical to a System without the fault subsystem in the path.
	Faults FaultPlan
	// Trace is the system's default decision-audit recorder: every
	// Experiment/RunSystem call whose own SimConfig carries no recorder
	// inherits it (events from an Experiment's four systems are
	// distinguished by their System stamp). Nil disables tracing and is a
	// proven no-op. Simulations run sequentially into one recorder; do not
	// share a traced System across concurrent runs.
	Trace *TraceRecorder
}

// SetupInfo reports how New obtained its characterization DBs.
type SetupInfo struct {
	// EvalFromCache and TrainFromCache are true when the corresponding DB
	// was loaded from the persistent cache instead of replayed.
	EvalFromCache, TrainFromCache bool
}

// System bundles everything needed to run the paper's experiments: the
// characterization ground truth, the energy model and a trained predictor.
//
// Goroutine safety: a System is immutable after New and safe for concurrent
// use — every method reads the characterization DBs, energy model and
// trained predictor without mutating them, and workload/priority generation
// takes explicit seeds instead of storing RNG state. One trained System can
// therefore be shared read-only across a worker pool (see internal/server).
// The discrete-event Simulator underneath RunSystem/Experiment is the
// opposite: single-use and NOT goroutine-safe; these methods construct a
// fresh private simulator per call, so concurrency is safe as long as
// callers do not reach into internal/core and share a Simulator themselves.
// Callers must not mutate the exported Eval/Train/Energy/Pred fields after
// the System is shared.
type System struct {
	// Eval is the characterization the experiments draw workloads from:
	// the canonical 16 automotive kernels, or 20 with IncludeTelecom.
	Eval *DB
	// Train is the augmented pool the predictor was fitted on.
	Train *DB
	// Energy is the Figure 4 model.
	Energy *energy.Model
	// Pred is the trained best-size predictor.
	Pred Predictor
	// Setup reports whether the DBs came from the persistent cache.
	Setup SetupInfo

	spec        PredictorSpec
	bag         *annBag // the ANN bag over Train, shared with hot-swapped copies
	multiDomain bool
	faults      FaultPlan
	tracer      *TraceRecorder
}

// annBag trains the bagged ANN on a System's Train DB at first use and
// hands every later caller the same predictor. WithPredictorSpec copies its
// receiver's memo, so hot-swaps share one bag; canonical seed-42 Systems
// share canonicalBag.
type annBag struct {
	cfg  ann.PredictorConfig
	once sync.Once
	pred *ann.SizePredictor
	err  error
}

// canonicalBag is the process-wide bag of every canonical seed-42 System;
// their Train is the one characterize.Augmented DB.
var canonicalBag = annBag{cfg: ann.PredictorConfig{Seed: 42}}

func (b *annBag) get(train *DB) (*ann.SizePredictor, error) {
	b.once.Do(func() { b.pred, _, b.err = ann.TrainSizePredictor(train, b.cfg) })
	return b.pred, b.err
}

// New characterizes the benchmark suite (cached per process) and trains the
// requested predictor.
func New(opts Options) (*System, error) {
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	em := energy.NewDefault()
	if opts.EnergyParams != nil {
		var err error
		em, err = energy.New(*opts.EnergyParams, em.Cacti())
		if err != nil {
			return nil, err
		}
	}
	evalVariants := characterize.CanonicalVariants()
	trainVariants := characterize.AugmentedVariants()
	if opts.IncludeTelecom {
		evalVariants = characterize.ExtendedVariants()
		trainVariants = characterize.AugmentedExtendedVariants()
	}
	copts := characterize.Options{Workers: opts.Workers}
	if opts.WithL2 {
		// The L2 extension changes every per-configuration outcome;
		// characterize under the two-level model.
		l2, err := energy.NewL2(em, energy.DefaultL2Params())
		if err != nil {
			return nil, err
		}
		copts.L2 = l2
	}
	// The paper's ground truth without a disk cache is canonical: every
	// such New in the process shares the process-wide DBs and, at seed 42,
	// one trained ANN bag.
	canonical := opts.CacheDir == "" && opts.EnergyParams == nil && !opts.WithL2 && !opts.IncludeTelecom

	var (
		eval, train *DB
		setup       SetupInfo
		err         error
	)
	if canonical {
		if eval, err = characterize.Default(); err != nil {
			return nil, err
		}
		if train, err = characterize.Augmented(); err != nil {
			return nil, err
		}
	} else {
		// A changed ground truth (custom energy constants, the L2 model,
		// an extended kernel population) or a disk cache: the content key
		// covers all of it, so the disk level applies either way.
		tier := characterize.NewTier(0, 0, opts.CacheDir, em, copts)
		var src characterize.Source
		if eval, src, err = tier.Characterize(evalVariants); err != nil {
			return nil, err
		}
		setup.EvalFromCache = src == characterize.SourceDisk
		if train, src, err = tier.Characterize(trainVariants); err != nil {
			return nil, err
		}
		setup.TrainFromCache = src == characterize.SourceDisk
	}

	seed := opts.Seed
	if seed == 0 {
		seed = 42
	}
	bag := &annBag{cfg: ann.PredictorConfig{Seed: seed, Workers: opts.Workers}}
	if canonical && seed == 42 {
		bag = &canonicalBag
	}
	sys := &System{Eval: eval, Train: train, Energy: em, Setup: setup, bag: bag, faults: opts.Faults, tracer: opts.Trace}
	spec := opts.Spec
	if spec.IsZero() {
		spec = DefaultPredictorSpec()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sys.spec = spec
	sys.multiDomain = opts.MultiDomainANN
	if opts.MultiDomainANN {
		if !opts.IncludeTelecom || !spec.IsSingle("ann") {
			return nil, fmt.Errorf("hetsched: MultiDomainANN requires IncludeTelecom and the ann predictor")
		}
		// Section IV.D: one bagged ensemble per application domain, each
		// over its own augmented pool.
		auto, tele := splitDomains(train)
		md, err := ann.TrainMultiDomain([]string{"automotive", "telecom"},
			map[string]*characterize.DB{"automotive": auto, "telecom": tele}, bag.cfg)
		if err != nil {
			return nil, err
		}
		sys.Pred = md
		return sys, nil
	}
	pred, err := sys.buildPredictor(spec)
	if err != nil {
		return nil, err
	}
	sys.Pred = pred
	return sys, nil
}

// PredictorName reports which predictor the system schedules with — the
// spec string ("ann", "ensemble:table,markov,ann", ...).
func (s *System) PredictorName() string { return s.spec.String() }

// ResolveCacheDir maps the CLIs' shared -cache-dir flag vocabulary to an
// Options.CacheDir value: "auto" resolves to the per-user cache directory
// ($XDG_CACHE_HOME/hetsched or equivalent), "off" and "" disable the
// persistent cache, anything else is used as the directory itself.
func ResolveCacheDir(flagVal string) (string, error) {
	switch flagVal {
	case "", "off", "none":
		return "", nil
	case "auto":
		return characterize.DefaultCacheDir()
	default:
		return flagVal, nil
	}
}

// Experiment runs the paper's four-system comparison (Section V) on one
// workload: base, optimal, energy-centric and proposed.
func (s *System) Experiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return s.ExperimentContext(context.Background(), cfg)
}

// ExperimentContext is Experiment honoring cancellation at every
// job-dispatch boundary: a canceled context abandons the in-flight
// simulation instead of running it to completion.
func (s *System) ExperimentContext(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
	if !cfg.Sim.Faults.Enabled() && s.faults.Enabled() {
		cfg.Sim.Faults = s.faults
	}
	if cfg.Sim.Trace == nil {
		cfg.Sim.Trace = s.tracer
	}
	return core.RunExperimentContext(ctx, s.Eval, s.Energy, s.Pred, cfg)
}

// RunSystem simulates a single named system over an explicit workload.
// Valid names: "base", "optimal", "energy-centric", "proposed",
// "proposed-noEadv".
func (s *System) RunSystem(name string, jobs []Job, sim SimConfig) (Metrics, error) {
	return s.RunSystemContext(context.Background(), name, jobs, sim)
}

// RunSystemContext is RunSystem honoring cancellation at every
// job-dispatch boundary.
func (s *System) RunSystemContext(ctx context.Context, name string, jobs []Job, sim SimConfig) (Metrics, error) {
	return s.RunOnDBContext(ctx, s.Eval, name, jobs, sim)
}

// RunOnDBContext is RunSystemContext over an explicit characterization DB
// instead of the System's canonical Eval set: job AppIDs index db, and the
// predictor reads db's ground truth where applicable. This is the serving
// tier's batch path — a request-supplied variant set is characterized on
// demand (see characterize.Tier) and scheduled without rebuilding the
// System. With the oracle predictor the oracle is re-bound to db, since
// the System's own oracle only knows the canonical records.
func (s *System) RunOnDBContext(ctx context.Context, db *DB, name string, jobs []Job, sim SimConfig) (Metrics, error) {
	if db == nil {
		return Metrics{}, fmt.Errorf("hetsched: nil characterization DB")
	}
	// Fill machine defaults field-wise so caller-set scheduling flags
	// (PriorityScheduling, Preemptive, SingleProfilingCore, Faults)
	// survive.
	def := core.DefaultSimConfig()
	if len(sim.CoreSizesKB) == 0 {
		sim.CoreSizesKB = def.CoreSizesKB
	}
	if sim.ReconfigCycles == 0 {
		sim.ReconfigCycles = def.ReconfigCycles
	}
	if sim.ProfilingCycles == 0 {
		sim.ProfilingCycles = def.ProfilingCycles
	}
	if !sim.Faults.Enabled() && s.faults.Enabled() {
		sim.Faults = s.faults
	}
	if sim.Trace == nil {
		sim.Trace = s.tracer
	}
	pol, needsPred, err := core.NewPolicy(name)
	if err != nil {
		return Metrics{}, err
	}
	var pred Predictor
	if needsPred {
		pred = s.predictorFor(db)
	}
	sim.CoreSizesKB = core.CoreSizesFor(name, sim.CoreSizesKB)
	simulator, err := core.NewSimulator(db, s.Energy, pol, pred, sim)
	if err != nil {
		return Metrics{}, err
	}
	return simulator.RunContext(ctx, jobs)
}

// predictorFor returns the predictor to schedule db with: the trained
// predictor (feature-based kinds generalize to any variant set), except
// the oracle, which must read ground truth from the DB actually being
// scheduled. For db == s.Eval this is exactly s.Pred.
func (s *System) predictorFor(db *DB) Predictor {
	if s.spec.IsSingle("oracle") && db != s.Eval {
		return core.OraclePredictor{DB: db}
	}
	return s.Pred
}

// Workload generates the paper-style uniform arrival stream over the whole
// suite at the given utilization.
func (s *System) Workload(arrivals int, utilization float64, seed int64) ([]Job, error) {
	return s.generate(ScenarioSpec{Source: "uniform"}, nil, arrivals, utilization, seed)
}

// TuneKernel walks the Figure 5 tuning heuristic for one benchmark on a
// core of the given cache size, returning the configurations explored (in
// order) and the heuristic's final best configuration.
func (s *System) TuneKernel(kernel string, sizeKB int) (explored []CacheConfig, best CacheConfig, err error) {
	return s.TuneKernelContext(context.Background(), kernel, sizeKB)
}

// TuneKernelContext is TuneKernel honoring cancellation between tuning
// steps.
func (s *System) TuneKernelContext(ctx context.Context, kernel string, sizeKB int) (explored []CacheConfig, best CacheConfig, err error) {
	rec, err := s.Eval.Find(kernel, eembc.DefaultParams())
	if err != nil {
		return nil, CacheConfig{}, err
	}
	tn, err := tuner.New(sizeKB)
	if err != nil {
		return nil, CacheConfig{}, err
	}
	err = tuner.Walk(tn, func(cfg cache.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cr, err := rec.Result(cfg)
		if err != nil {
			return 0, err
		}
		return cr.Energy.Total, nil
	})
	if err != nil {
		return nil, CacheConfig{}, err
	}
	best, _, _ = tn.Best()
	return tn.Explored(), best, nil
}

// PredictBestSize profiles nothing: it evaluates the trained predictor on a
// characterized benchmark's recorded features and returns the predicted and
// oracle best cache sizes.
func (s *System) PredictBestSize(kernel string) (predicted, oracle int, err error) {
	rec, err := s.Eval.Find(kernel, eembc.DefaultParams())
	if err != nil {
		return 0, 0, err
	}
	predicted, err = s.Pred.PredictSizeKB(rec.Features)
	if err != nil {
		return 0, 0, err
	}
	return predicted, rec.BestSizeKB(), nil
}

// splitDomains splits the extended training pool, the automotive pool
// followed by the telecom one, into the two, renumbering the telecom
// records from 0 so each pool reads as if characterized on its own.
// Multi-domain setup thus characterizes neither pool again.
func splitDomains(train *DB) (auto, tele *DB) {
	n := len(characterize.AugmentedVariants())
	auto = &DB{Records: train.Records[:n:n]}
	tele = &DB{Records: slices.Clone(train.Records[n:])}
	for i := range tele.Records {
		tele.Records[i].ID = i
	}
	return auto, tele
}
