package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/stats"
)

// predMeter times every call into a wrapped predictor while its tracer is
// metering. PredictSizeKB calls are counted; the time inside every timed
// method (predictions and online-learning feedback) is summed and recorded
// as one span per call.
type predMeter struct {
	tr                      *tracer
	span                    string // span name of every timed call
	callsMetric, timeMetric string // per-layer metric names

	calls atomic.Int64
	ns    atomic.Int64
	// parent and op attribute calls to the harness span around them; -1
	// where they come from server goroutines the harness does not drive.
	parent, op atomic.Int64
}

func newPredMeter(tr *tracer, layer string) *predMeter {
	m := &predMeter{tr: tr}
	switch layer {
	case "ann":
		m.span, m.callsMetric, m.timeMetric = "ann.predict", "ann.predict_calls", "ann.predict_us"
	default:
		m.span, m.callsMetric, m.timeMetric = "predict", "predict.calls", "predict.us"
	}
	m.attribute(-1, -1)
	return m
}

func (m *predMeter) attribute(parent, op int) {
	m.parent.Store(int64(parent))
	m.op.Store(int64(op))
}

func (m *predMeter) done(start time.Time, prediction bool) {
	end := time.Now()
	if prediction {
		m.calls.Add(1)
	}
	m.ns.Add(int64(end.Sub(start)))
	m.tr.add(m.span, start, end, int(m.parent.Load()), int(m.op.Load()))
}

// The optional predictor interfaces the simulator and the server detect by
// type assertion. A wrapper must implement exactly the set its predictor
// implements, or the simulator would take different paths.
const (
	capVotes       = 1 << iota // core.VotingPredictor
	capMemberVotes             // core.VotePredictor
	capObserve                 // core.FeedbackPredictor
	capRegret                  // core.RegretObserver
	capFork                    // core.ForkingPredictor
	capSnapshot                // core.PredictorReporter
)

// The capability sets of the ANN bag and of the online Hedge ensemble.
const (
	capsANN      = capMemberVotes
	capsEnsemble = capVotes | capMemberVotes | capObserve | capRegret | capFork | capSnapshot
)

func capsOf(p core.Predictor) int {
	c := 0
	if _, ok := p.(core.VotingPredictor); ok {
		c |= capVotes
	}
	if _, ok := p.(core.VotePredictor); ok {
		c |= capMemberVotes
	}
	if _, ok := p.(core.FeedbackPredictor); ok {
		c |= capObserve
	}
	if _, ok := p.(core.RegretObserver); ok {
		c |= capRegret
	}
	if _, ok := p.(core.ForkingPredictor); ok {
		c |= capFork
	}
	if _, ok := p.(core.PredictorReporter); ok {
		c |= capSnapshot
	}
	return c
}

// wrap returns p behind the meter, implementing exactly p's optional
// interfaces.
func (m *predMeter) wrap(p core.Predictor) (core.Predictor, error) {
	base := metered{inner: p, m: m}
	switch caps := capsOf(p); caps {
	case 0:
		return &base, nil
	case capsANN:
		return &meteredANN{base}, nil
	case capsEnsemble:
		return &meteredEnsemble{base}, nil
	default:
		return nil, fmt.Errorf("no metering wrapper for predictor %T (capabilities %06b)", p, caps)
	}
}

type metered struct {
	inner core.Predictor
	m     *predMeter
}

func (p *metered) PredictSizeKB(f stats.Features) (int, error) {
	if !p.m.tr.meteringOn() {
		return p.inner.PredictSizeKB(f)
	}
	start := time.Now()
	kb, err := p.inner.PredictSizeKB(f)
	p.m.done(start, true)
	return kb, err
}

type meteredANN struct{ metered }

func (p *meteredANN) MemberVotes(f stats.Features) (map[int]int, error) {
	return p.inner.(core.VotePredictor).MemberVotes(f)
}

type meteredEnsemble struct{ metered }

func (p *meteredEnsemble) MemberVotes(f stats.Features) (map[int]int, error) {
	return p.inner.(core.VotePredictor).MemberVotes(f)
}

func (p *meteredEnsemble) Votes(f stats.Features) ([]core.Vote, error) {
	return p.inner.(core.VotingPredictor).Votes(f)
}

func (p *meteredEnsemble) PredictorSnapshot() core.PredictorStats {
	return p.inner.(core.PredictorReporter).PredictorSnapshot()
}

func (p *meteredEnsemble) Observe(f stats.Features, chosenKB, bestKB int, energyNJ float64) {
	inner := p.inner.(core.FeedbackPredictor)
	if !p.m.tr.meteringOn() {
		inner.Observe(f, chosenKB, bestKB, energyNJ)
		return
	}
	start := time.Now()
	inner.Observe(f, chosenKB, bestKB, energyNJ)
	p.m.done(start, false)
}

func (p *meteredEnsemble) ObserveRegret(f stats.Features, chosenKB, bestKB int, regretBySizeNJ map[int]float64, energyNJ float64) {
	inner := p.inner.(core.RegretObserver)
	if !p.m.tr.meteringOn() {
		inner.ObserveRegret(f, chosenKB, bestKB, regretBySizeNJ, energyNJ)
		return
	}
	start := time.Now()
	inner.ObserveRegret(f, chosenKB, bestKB, regretBySizeNJ, energyNJ)
	p.m.done(start, false)
}

// Fork wraps the fork too, so a simulator's private copy stays metered.
func (p *meteredEnsemble) Fork() core.Predictor {
	forked, err := p.m.wrap(p.inner.(core.ForkingPredictor).Fork())
	if err != nil {
		// Only a predictor whose forks change capabilities gets here.
		panic(err)
	}
	return forked
}
