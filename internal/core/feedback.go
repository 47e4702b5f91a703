package core

// Post-run outcome feedback: after every completed execution of a profiled
// application the simulator knows the ground truth (the characterization
// record), so it can score the predictor's standing prediction and — when
// the predictor learns online — feed the observed energy regret back and
// refresh the stored prediction. Fixed predictors (ANN bag, oracle,
// mlbase baselines) implement none of the feedback interfaces; for them
// this path only accumulates Metrics.Predictor, scoring the prediction the
// profiling table already holds, and changes no scheduling decision,
// keeping every legacy run bit-identical.

import (
	"slices"

	"hetsched/internal/cache"
	"hetsched/internal/characterize"
)

// appTruth is what outcome feedback reads of one application's ground
// truth, memoized on first completion: it never changes within a run.
type appTruth struct {
	bestKB int
	// regret[i] is the energy regret of running at cache.Sizes()[i]: the
	// best energy achievable at that size minus the global best energy.
	// nil until memoized.
	regret []float64
	// byKB is regret keyed by size, the form RegretObserver takes; built
	// only for a predictor that observes regret.
	byKB map[int]float64
}

// truthOf returns app's memoized ground truth, computing it from rec (the
// app's record) on first use.
func (s *Simulator) truthOf(app int, rec *characterize.Record) (*appTruth, error) {
	if s.truth == nil {
		s.truth = make([]appTruth, len(s.DB.Records))
	}
	t := &s.truth[app]
	if t.regret != nil {
		return t, nil
	}
	best := rec.BestConfig()
	sizes := cache.Sizes()
	regret := make([]float64, len(sizes))
	for i, size := range sizes {
		cr, err := rec.BestConfigForSize(size)
		if err != nil {
			return nil, err
		}
		r := cr.Energy.Total - best.Energy.Total
		if r < 0 {
			r = 0
		}
		regret[i] = r
	}
	t.bestKB, t.regret = best.Config.SizeKB, regret
	return t, nil
}

// regretAt is the regret of running at sizeKB; 0 for a size outside the
// design space.
func (t *appTruth) regretAt(sizeKB int) float64 {
	if i := slices.Index(cache.Sizes(), sizeKB); i >= 0 {
		return t.regret[i]
	}
	return 0
}

// regretByKB returns the regret keyed by size, built on first use.
func (t *appTruth) regretByKB() map[int]float64 {
	if t.byKB == nil {
		t.byKB = make(map[int]float64, len(t.regret))
		for i, size := range cache.Sizes() {
			t.byKB[size] = t.regret[i]
		}
	}
	return t.byKB
}

// observeOutcome scores the predictor against the completed execution's
// ground truth and, for online predictors, feeds the outcome back and
// refreshes the profiling table's stored prediction with the post-update
// view. Called from recordCompletion once the application is profiled.
func (s *Simulator) observeOutcome(job *Job, rec *characterize.Record, cfg cache.Config, energyNJ float64) error {
	entry := s.Table.Ensure(job.AppID)
	if s.Pred == nil || !entry.Profiled {
		return nil
	}
	f := entry.Features
	truth, err := s.truthOf(job.AppID, rec)
	if err != nil {
		return err
	}
	bestKB := truth.bestKB

	// Score the pre-feedback prediction: what the predictor says *now*,
	// before seeing this outcome — proper online (prequential) accounting.
	// A fixed predictor is a pure function of its features (see Predictor),
	// so what it says now is the prediction the table stored from the same
	// features; only an online predictor is asked again.
	predicted := entry.PredictedSizeKB
	online := false
	switch s.Pred.(type) {
	case RegretObserver, FeedbackPredictor:
		online = true
		if predicted, err = s.Pred.PredictSizeKB(f); err != nil {
			return err
		}
	}
	s.predStats.Predictions++
	if predicted == bestKB {
		s.predStats.Hits++
	}
	s.predStats.RegretNJ += truth.regretAt(predicted)

	// Feed the outcome back. RegretObserver gets the full per-size regret
	// profile (what multiplicative-weights updates need); the simpler
	// Observe hook gets the chosen/best pair and the observed energy.
	if !online {
		return nil
	}
	switch p := s.Pred.(type) {
	case RegretObserver:
		p.ObserveRegret(f, cfg.SizeKB, bestKB, truth.regretByKB(), energyNJ)
	case FeedbackPredictor:
		p.Observe(f, cfg.SizeKB, bestKB, energyNJ)
	}
	// The predictor changed: re-predict and refresh the stored prediction
	// so subsequent placements of this application act on what was learned.
	fresh, err := s.Pred.PredictSizeKB(f)
	if err != nil {
		return err
	}
	if fresh != entry.PredictedSizeKB {
		if err := entry.SetPrediction(fresh); err != nil {
			return err
		}
		s.tracePredict(job, f, fresh)
	}
	s.traceObserve(job, cfg.SizeKB, bestKB, truth.regretAt(cfg.SizeKB))
	return nil
}

// snapshotPredictorStats publishes the run's predictor scorecard into the
// metrics at end of run: the simulator's own prequential counts, plus the
// per-member breakdown when the predictor reports one.
func (s *Simulator) snapshotPredictorStats() {
	if s.Pred == nil || s.predStats.Predictions == 0 {
		return
	}
	ps := s.predStats
	if rep, ok := s.Pred.(PredictorReporter); ok {
		snap := rep.PredictorSnapshot()
		ps.Name = snap.Name
		ps.Members = snap.Members
	}
	s.metrics.Predictor = &ps
}
