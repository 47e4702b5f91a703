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
	"hetsched/internal/cache"
	"hetsched/internal/characterize"
)

// regretBySize returns, for one application, the energy regret of running
// at each design-space size: the best energy achievable at that size minus
// the global best energy. Memoized per app — ground truth never changes
// within a run.
func (s *Simulator) regretBySize(rec *characterize.Record) (map[int]float64, error) {
	if r, ok := s.regretCache[rec.ID]; ok {
		return r, nil
	}
	bestE := rec.BestConfig().Energy.Total
	out := make(map[int]float64, len(cache.Sizes()))
	for _, size := range cache.Sizes() {
		cr, err := rec.BestConfigForSize(size)
		if err != nil {
			return nil, err
		}
		r := cr.Energy.Total - bestE
		if r < 0 {
			r = 0
		}
		out[size] = r
	}
	if s.regretCache == nil {
		s.regretCache = make(map[int]map[int]float64)
	}
	s.regretCache[rec.ID] = out
	return out, nil
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
	regret, err := s.regretBySize(rec)
	if err != nil {
		return err
	}
	bestKB := rec.BestSizeKB()

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
	s.predStats.RegretNJ += regret[predicted]

	// Feed the outcome back. RegretObserver gets the full per-size regret
	// profile (what multiplicative-weights updates need); the simpler
	// Observe hook gets the chosen/best pair and the observed energy.
	if !online {
		return nil
	}
	switch p := s.Pred.(type) {
	case RegretObserver:
		p.ObserveRegret(f, cfg.SizeKB, bestKB, regret, energyNJ)
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
	s.traceObserve(job, cfg.SizeKB, bestKB, regret[cfg.SizeKB])
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
