package core

import (
	"fmt"
	"slices"
	"strings"

	"hetsched/internal/cache"
)

// ----------------------------------------------------------------------
// Base system: every core runs the fixed base configuration 8KB_4W_64B; no
// profiling, no ANN, no tuning. Jobs go to the lowest-ID idle core.
// ----------------------------------------------------------------------

// BasePolicy is the paper's base comparison system.
type BasePolicy struct{}

// Name implements Policy.
func (BasePolicy) Name() string { return "base" }

// BaseCoreSizes returns the base system's core sizes: every core carries the
// base 8 KB cache.
func BaseCoreSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = cache.BaseConfig.SizeKB
	}
	return sizes
}

func (BasePolicy) stallRules() stallRules { return stallWhenBusy | stallPerApp }

// Decide implements Policy.
func (BasePolicy) Decide(s *Simulator, job *Job) (Decision, error) {
	idle := s.IdleCores()
	if len(idle) == 0 {
		return Decision{}, nil
	}
	return Decision{Place: true, CoreID: idle[0].ID, Config: cache.BaseConfig}, nil
}

// OnComplete implements Policy.
func (BasePolicy) OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error {
	return nil
}

// ----------------------------------------------------------------------
// Shared completion bookkeeping for the table-driven systems.
// ----------------------------------------------------------------------

// recordCompletion stores the finished execution in the profiling table,
// advances the tuner that requested it (if any), and — after a profiling
// run — stores the features and, when a predictor is present, the best-size
// prediction.
func recordCompletion(s *Simulator, job *Job, cfg cache.Config, profiled bool) error {
	rec, err := s.Record(job)
	if err != nil {
		return err
	}
	cr, err := rec.Result(cfg)
	if err != nil {
		return err
	}
	entry := s.Table.Ensure(job.AppID)
	if _, seen := entry.Execution(cfg); !seen {
		s.NoteExplored(job.AppID)
	}
	if err := entry.RecordExecution(cfg, cr.Energy.Total, cr.Cycles); err != nil {
		return err
	}
	if tn, err := entry.Tuner(cfg.SizeKB); err == nil && !tn.Done() {
		if want, ok := tn.Next(); ok && want == cfg {
			// Capture the tuner's running best before the observation so
			// the audit event can report accept/reject (tracing only).
			_, prevBestE, hadBest := tn.Best()
			if err := tn.Observe(cfg, cr.Energy.Total); err != nil {
				return err
			}
			s.traceTune(job, cfg, cr.Energy.Total, !hadBest || cr.Energy.Total < prevBestE)
		}
	}
	if profiled && !entry.Profiled {
		// Counter noise (fault injection) perturbs what the profiling
		// hardware reports; predictions are made from the noisy view.
		f := s.noisyFeatures(job.AppID, rec.Features)
		entry.SetProfile(f)
		if s.Pred != nil {
			size, err := s.Pred.PredictSizeKB(f)
			if err != nil {
				return err
			}
			if err := entry.SetPrediction(size); err != nil {
				return err
			}
			s.tracePredict(job, f, size)
		}
	}
	// Outcome feedback: the completed execution's ground truth scores the
	// standing prediction and, for online predictors, drives learning.
	return s.observeOutcome(job, rec, cfg, cr.Energy.Total)
}

// profilingDecision finds an idle profiling core and schedules the base-
// configuration profiling run, or stalls. If the application is already
// being profiled on some core, later arrivals of the same application wait
// for that run — the profiling table eliminates repeat profiling
// (Section IV.A).
func profilingDecision(s *Simulator, appID int) (Decision, bool) {
	for _, c := range s.Cores() {
		if c.job != nil && c.profiling && c.job.AppID == appID {
			return Decision{}, false
		}
	}
	if c := s.idleProfilingCore(); c != nil {
		return Decision{Place: true, CoreID: c.ID, Config: profilingConfigFor(c), Profiling: true}, true
	}
	return Decision{}, false
}

// profilingConfigFor returns the configuration a profiling run executes in
// on core c: the paper's base configuration on a base-size core, or the
// largest configuration that fits when permanent core loss has degraded
// profiling onto a smaller survivor.
func profilingConfigFor(c *SimCore) cache.Config {
	if c.SizeKB == cache.BaseConfig.SizeKB {
		return cache.BaseConfig
	}
	cfgs := cache.ConfigsForSize(c.SizeKB)
	return cfgs[len(cfgs)-1]
}

// tunedConfigFor returns the configuration to execute on a core of
// sizeKB: the known best when tuning has converged, otherwise the tuner's
// next exploration step.
func tunedConfigFor(s *Simulator, appID, sizeKB int) (cache.Config, bool, error) {
	entry := s.Table.Ensure(appID)
	if best, ok := entry.BestForSize(sizeKB); ok {
		return best.Config, false, nil
	}
	tn, err := entry.Tuner(sizeKB)
	if err != nil {
		return cache.Config{}, false, err
	}
	cfg, ok := tn.Next()
	if !ok {
		// Tuner finished but best not recorded: should be impossible
		// because Observe requires a recorded execution first.
		return cache.Config{}, false, fmt.Errorf("core: tuner done without best for app %d size %dKB", appID, sizeKB)
	}
	return cfg, true, nil
}

// ----------------------------------------------------------------------
// Optimal system: Figure 1 core subsets, profiling on the profiling core,
// no ANN. Every benchmark executes in all 18 configurations over its first
// executions (exhaustive search); afterwards it runs in the best known
// configuration, preferring its best core when idle, never stalling.
// ----------------------------------------------------------------------

// OptimalPolicy is the paper's "optimal" comparison system.
type OptimalPolicy struct{}

// Name implements Policy.
func (OptimalPolicy) Name() string { return "optimal" }

func (OptimalPolicy) stallRules() stallRules { return stallWhenBusy | stallPerApp }

// Decide implements Policy.
func (OptimalPolicy) Decide(s *Simulator, job *Job) (Decision, error) {
	entry := s.Table.Ensure(job.AppID)
	if !entry.Profiled {
		d, ok := profilingDecision(s, job.AppID)
		if !ok {
			return Decision{}, nil
		}
		return d, nil
	}
	idle := s.IdleCores()
	if len(idle) == 0 {
		return Decision{}, nil
	}
	// Exploration phase: run the first unexplored configuration offered by
	// an idle core.
	for _, c := range idle {
		for _, cfg := range cache.ConfigsForSize(c.SizeKB) {
			if _, seen := entry.Execution(cfg); !seen {
				return Decision{Place: true, CoreID: c.ID, Config: cfg}, nil
			}
		}
	}
	// Fully explored on every idle core's subset: schedule to the best
	// core when idle; otherwise to an arbitrary idle core (the paper's
	// optimal system "only schedules to the best core when that core is
	// idle" — it does not shop among non-best cores), executing in that
	// core's best explored configuration.
	bestCfg, err := exploredBest(s, job.AppID)
	if err != nil {
		return Decision{}, err
	}
	for _, c := range idle {
		if c.SizeKB == bestCfg.SizeKB {
			return Decision{Place: true, CoreID: c.ID, Config: bestCfg}, nil
		}
	}
	fallback := idle[0]
	fallbackCfg, _, err := exploredBestForSize(s, job.AppID, fallback.SizeKB)
	if err != nil {
		return Decision{}, err
	}
	s.NoteNonBest()
	return Decision{Place: true, CoreID: fallback.ID, Config: fallbackCfg}, nil
}

// designByName is Table 1 in String() order, so the explored-best scans
// below break energy ties by configuration name without collecting and
// sorting the explored set per call. Every recorded execution is a Table 1
// configuration: the simulator records only configurations its
// characterization record holds.
var designByName = func() []cache.Config {
	out := slices.Clone(cache.DesignSpace())
	slices.SortFunc(out, func(a, b cache.Config) int { return strings.Compare(a.String(), b.String()) })
	return out
}()

// bestExplored returns the lowest-energy configuration among those the app
// has executed in so far, restricted to one cache size unless sizeKB is 0.
func bestExplored(s *Simulator, appID, sizeKB int) (cache.Config, float64, bool) {
	entry := s.Table.Ensure(appID)
	var best cache.Config
	bestE := 0.0
	found := false
	for _, cfg := range designByName {
		if sizeKB != 0 && cfg.SizeKB != sizeKB {
			continue
		}
		ci, ok := entry.Execution(cfg)
		if !ok {
			continue
		}
		if !found || ci.Energy < bestE {
			best, bestE, found = cfg, ci.Energy, true
		}
	}
	return best, bestE, found
}

// exploredBest returns the lowest-energy configuration among those the app
// has executed in so far.
func exploredBest(s *Simulator, appID int) (cache.Config, error) {
	best, _, found := bestExplored(s, appID, 0)
	if !found {
		return cache.Config{}, fmt.Errorf("core: app %d has no explored configs", appID)
	}
	return best, nil
}

// exploredBestForSize restricts exploredBest to one core size.
func exploredBestForSize(s *Simulator, appID, sizeKB int) (cache.Config, float64, error) {
	best, bestE, found := bestExplored(s, appID, sizeKB)
	if !found {
		return cache.Config{}, 0, fmt.Errorf("core: app %d has no explored configs of %dKB", appID, sizeKB)
	}
	return best, bestE, nil
}

// OnComplete implements Policy.
func (OptimalPolicy) OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error {
	return recordCompletion(s, job, cfg, profiled)
}

// ----------------------------------------------------------------------
// Energy-centric system: profiling + ANN prediction, then the benchmark
// only ever runs on its predicted best core, stalling whenever that core is
// busy — even if other cores idle.
// ----------------------------------------------------------------------

// EnergyCentricPolicy is the paper's always-stall comparison system.
type EnergyCentricPolicy struct{}

// Name implements Policy.
func (EnergyCentricPolicy) Name() string { return "energy-centric" }

func (EnergyCentricPolicy) stallRules() stallRules { return stallWhenBusy | stallPerApp }

// Decide implements Policy.
func (EnergyCentricPolicy) Decide(s *Simulator, job *Job) (Decision, error) {
	if s.Pred == nil {
		return Decision{}, fmt.Errorf("core: energy-centric system requires a predictor")
	}
	entry := s.Table.Ensure(job.AppID)
	if !entry.Profiled {
		d, ok := profilingDecision(s, job.AppID)
		if !ok {
			return Decision{}, nil
		}
		return d, nil
	}
	bestSize := s.resolvePredictedSize(entry.PredictedSizeKB)
	for _, c := range s.CoresOfSize(bestSize) {
		if !c.Idle(s.Now()) {
			continue
		}
		cfg, tuning, err := tunedConfigFor(s, job.AppID, c.SizeKB)
		if err != nil {
			return Decision{}, err
		}
		if tuning {
			s.NoteTuningRun()
		}
		if bestSize != entry.PredictedSizeKB {
			s.NoteFallback()
		}
		return Decision{Place: true, CoreID: c.ID, Config: cfg}, nil
	}
	return Decision{}, nil // stall until the best core frees
}

// OnComplete implements Policy.
func (EnergyCentricPolicy) OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error {
	return recordCompletion(s, job, cfg, profiled)
}

// ----------------------------------------------------------------------
// Proposed system: the paper's contribution (Figure 2). Profiling + ANN
// prediction; best core when idle; otherwise the energy-advantageous
// decision chooses between an idle non-best core and stalling; unknown
// design-space corners are explored via the tuning heuristic.
// ----------------------------------------------------------------------

// ProposedPolicy is the paper's proposed scheduler.
type ProposedPolicy struct {
	// DisableEadv skips the energy-advantageous comparison (ablation): any
	// idle core with a known best configuration is taken immediately, the
	// greedy "never stall" strategy the paper's Section VI argues against.
	DisableEadv bool
}

// Name implements Policy.
func (p ProposedPolicy) Name() string {
	if p.DisableEadv {
		return "proposed-noEadv"
	}
	return "proposed"
}

// stallRules leaves out Rule B: a proposed stall with idle cores depends on
// the job's deadline (the SLO override) and emits a per-job stall event.
func (ProposedPolicy) stallRules() stallRules { return stallWhenBusy }

// Decide implements Policy.
func (p ProposedPolicy) Decide(s *Simulator, job *Job) (Decision, error) {
	if s.Pred == nil {
		return Decision{}, fmt.Errorf("core: proposed system requires a predictor")
	}
	entry := s.Table.Ensure(job.AppID)
	if !entry.Profiled {
		d, ok := profilingDecision(s, job.AppID)
		if !ok {
			return Decision{}, nil
		}
		return d, nil
	}
	bestSize := s.resolvePredictedSize(entry.PredictedSizeKB)

	// Best core idle: take it (known best config or tuning step).
	for _, c := range s.CoresOfSize(bestSize) {
		if !c.Idle(s.Now()) {
			continue
		}
		cfg, tuning, err := tunedConfigFor(s, job.AppID, c.SizeKB)
		if err != nil {
			return Decision{}, err
		}
		if tuning {
			s.NoteTuningRun()
		}
		if bestSize != entry.PredictedSizeKB {
			s.NoteFallback()
		}
		return Decision{Place: true, CoreID: c.ID, Config: cfg}, nil
	}

	idle := s.IdleCores()
	if len(idle) == 0 {
		return Decision{}, nil
	}

	// If any idle core's best configuration is unknown, the scheduler
	// cannot evaluate the energy trade-off; it schedules to such a core
	// arbitrarily to learn the design space (Section IV.E).
	for _, c := range idle {
		if _, known := entry.BestForSize(c.SizeKB); !known {
			cfg, tuning, err := tunedConfigFor(s, job.AppID, c.SizeKB)
			if err != nil {
				return Decision{}, err
			}
			if tuning {
				s.NoteTuningRun()
			}
			s.NoteNonBest()
			return Decision{Place: true, CoreID: c.ID, Config: cfg}, nil
		}
	}

	// All idle cores' bests are known. The comparison also needs the
	// best-core energy; without it the job stalls for its best core.
	bestInfo, known := entry.BestForSize(bestSize)
	if !known {
		return Decision{}, nil
	}

	// Window until the earliest best core frees. Crashed cores have no
	// finite window and are skipped; if every best-size core is down the
	// window defaults to zero (stalling favored until one recovers).
	var window uint64
	first := true
	for _, c := range s.CoresOfSize(bestSize) {
		if c.failed || c.dead {
			continue
		}
		w := uint64(0)
		if c.BusyUntil() > s.Now() {
			w = c.BusyUntil() - s.Now()
		}
		if first || w < window {
			window, first = w, false
		}
	}

	// Energy-advantageous evaluation over every idle (non-best) core with
	// known best configuration: stallE = E(job on best core) + candidate
	// idle energy over the window; runE = E(job on candidate now). Schedule
	// to the cheapest candidate whose runE beats stalling.
	var pick *SimCore
	var pickCfg cache.Config
	pickE := 0.0
	// Audit-only tracking of the cheapest candidate overall, so a stall
	// verdict can report the compare it rejected (nil recorder: no work).
	var cmp *SimCore
	var cmpCfg cache.Config
	var cmpStallE, cmpRunE float64
	for _, c := range idle {
		ci, ok := entry.BestForSize(c.SizeKB)
		if !ok {
			continue // unreachable: handled above
		}
		stallE := bestInfo.Energy + s.EM.IdleEnergy(c.SizeKB, window)
		if s.tr != nil && (cmp == nil || ci.Energy < cmpRunE) {
			cmp, cmpCfg, cmpStallE, cmpRunE = c, ci.Config, stallE, ci.Energy
		}
		if p.DisableEadv || stallE > ci.Energy {
			if pick == nil || ci.Energy < pickE {
				pick, pickCfg, pickE = c, ci.Config, ci.Energy
			}
		}
	}
	if pick == nil {
		// SLO-aware override (DESIGN.md §16): the energy rule says stall,
		// but for a deadline-carrying job the stall is acceptable only if
		// the projected completion — wait window plus the best-core
		// execution time — still meets the deadline. If it does not, the
		// job migrates to the cheapest idle candidate whose own projected
		// completion meets the deadline; when no candidate meets it either,
		// the energy rule stands (every option is late, so the cheapest one
		// — stalling — wins).
		if s.Cfg.SLOAware && job.Deadlined() {
			stallFinish := s.Now() + window + bestInfo.Cycles
			if stallFinish > job.DeadlineCycle {
				var forced *SimCore
				var forcedCfg cache.Config
				forcedE := 0.0
				for _, c := range idle {
					ci, ok := entry.BestForSize(c.SizeKB)
					if !ok || s.Now()+ci.Cycles > job.DeadlineCycle {
						continue
					}
					if forced == nil || ci.Energy < forcedE {
						forced, forcedCfg, forcedE = c, ci.Config, ci.Energy
					}
				}
				if forced != nil {
					stallE := bestInfo.Energy + s.EM.IdleEnergy(forced.SizeKB, window)
					s.NoteSLOForced(forcedE - stallE)
					s.traceSLO(job, forced, forcedCfg, stallE, forcedE, stallFinish)
					s.NoteNonBest()
					return Decision{Place: true, CoreID: forced.ID, Config: forcedCfg, SLOForced: true}, nil
				}
			}
		}
		if cmp != nil {
			s.traceStall(job, cmp, cmpCfg, cmpStallE, cmpRunE, true)
		}
		return Decision{}, nil // stalling is energy advantageous
	}
	s.traceStall(job, pick, pickCfg,
		bestInfo.Energy+s.EM.IdleEnergy(pick.SizeKB, window), pickE, false)
	s.NoteNonBest()
	return Decision{Place: true, CoreID: pick.ID, Config: pickCfg}, nil
}

// OnComplete implements Policy.
func (ProposedPolicy) OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error {
	return recordCompletion(s, job, cfg, profiled)
}
