package core

// The extended predictor API: optional interfaces a Predictor may
// implement to expose per-member votes, receive post-run outcome feedback
// (the online-learning path), fork per-run private state, and report
// per-member statistics. Every extension is optional — the scheduler
// detects each capability with a type assertion, so the original
// fixed-predictor kinds (ANN bag, oracle, mlbase baselines) run
// bit-identically to before.
//
// Purity contract: a Predictor that implements neither FeedbackPredictor
// nor RegretObserver must be a pure function of its features — the same
// stats.Features always give the same size (or the same error). The
// simulator relies on it: it asks such a predictor once per profiled
// application, stores the answer in the profiling table (Section IV.B),
// and scores every later completion against that stored answer instead of
// asking again. A predictor whose answers drift must implement one of the
// feedback interfaces, which restores the per-completion re-prediction.

import "hetsched/internal/stats"

// Vote is one ensemble member's ballot for a prediction: which cache size
// the member chose, the weight the ensemble currently assigns it, and the
// member's own confidence in (0, 1].
type Vote struct {
	// Name identifies the member within its ensemble ("table", "ann", ...).
	Name string
	// SizeKB is the cache size the member voted for.
	SizeKB int
	// Weight is the member's current ensemble weight (normalized).
	Weight float64
	// Confidence is the member's self-reported certainty in (0, 1].
	Confidence float64
}

// VotingPredictor is the vote/confidence form of Predictor: the prediction
// decomposed into named, weighted member ballots. The trace subsystem and
// the /v1/predict endpoint render these.
type VotingPredictor interface {
	Predictor
	Votes(f stats.Features) ([]Vote, error)
}

// FeedbackPredictor is the optional outcome-feedback hook: after a
// completed execution the scheduler reports the features it predicted
// from, the size it actually ran at, the ground-truth best size, and the
// execution's observed energy. Implementations learn online; predictors
// without the hook are left untouched.
type FeedbackPredictor interface {
	Observe(f stats.Features, chosenKB, bestKB int, energyNJ float64)
}

// RegretObserver is the richer feedback hook the simulator prefers when
// present: the full per-size energy-regret profile of the completed
// application (regretBySizeNJ[s] = best energy achievable at size s minus
// the global best energy), which multiplicative-weights updates need to
// score every member's counterfactual ballot, not just the chosen one.
type RegretObserver interface {
	ObserveRegret(f stats.Features, chosenKB, bestKB int, regretBySizeNJ map[int]float64, energyNJ float64)
}

// ForkingPredictor lets a stateful (online-learning) predictor hand each
// simulation run a private copy: NewSimulator forks the predictor it is
// given, so concurrent runs never share mutable state and every run's
// learning trajectory is deterministic regardless of worker count. The
// original instance is never mutated by the run and stays safe for
// concurrent read-only use (e.g. the daemon's /v1/predict path).
type ForkingPredictor interface {
	Fork() Predictor
}

// MemberStats is one ensemble member's running scorecard.
type MemberStats struct {
	Name string
	// Weight is the member's current (normalized) ensemble weight.
	Weight float64
	// Predictions counts scored ballots; Hits how many matched the oracle
	// best size.
	Predictions int
	Hits        int
	// RegretNJ is the cumulative energy regret of the member's ballots:
	// sum over outcomes of (best energy at the voted size − global best).
	RegretNJ float64
}

// HitRate returns Hits/Predictions (0 when nothing was scored).
func (m MemberStats) HitRate() float64 {
	if m.Predictions == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Predictions)
}

// PredictorStats is a predictor's running scorecard over one run (or, on
// the daemon, aggregated across runs): top-level counts for the
// predictor's own decisions plus one entry per ensemble member.
type PredictorStats struct {
	// Name is the predictor's spec string ("ann", "ensemble:table,ann", ...).
	Name string
	// Predictions counts scored predictions; Hits how many matched the
	// oracle best size; RegretNJ the cumulative energy regret vs the oracle.
	Predictions int
	Hits        int
	RegretNJ    float64
	// Members holds per-member stats for ensemble predictors (nil
	// otherwise).
	Members []MemberStats
}

// HitRate returns Hits/Predictions (0 when nothing was scored).
func (p PredictorStats) HitRate() float64 {
	if p.Predictions == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Predictions)
}

// PredictorReporter is the optional stats-snapshot capability: ensembles
// report their member weights and scorecards through it. The snapshot must
// be taken from the same goroutine that drives the simulation (the
// reporter is not required to be goroutine-safe).
type PredictorReporter interface {
	PredictorSnapshot() PredictorStats
}
