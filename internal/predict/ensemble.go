package predict

import (
	"fmt"
	"math"

	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/stats"
)

// DefaultEta is the multiplicative-weights learning rate: with losses
// normalized to [0, 1] per round, e^-0.5 ≈ 0.61 halves a consistently
// wrong member's weight every ~1.5 outcomes while a few bad rounds are
// recoverable.
const DefaultEta = 0.5

// minWeight floors normalized weights so a long losing streak cannot
// underflow a member to exactly zero — it stays revivable if the workload
// shifts in its favor.
const minWeight = 1e-9

type tally struct {
	predictions int
	hits        int
	regretNJ    float64
}

// Ensemble composes heterogeneous best-size members under per-member
// weights re-estimated online by multiplicative-weights (Hedge) updates
// from observed post-run energy regret.
//
// It implements the full extended predictor API of internal/core:
// core.Predictor (the weighted vote), core.VotingPredictor (per-member
// ballots), core.RegretObserver / core.FeedbackPredictor (outcome
// feedback), core.ForkingPredictor (per-run private state) and
// core.PredictorReporter (per-member scorecards). An Ensemble that is
// never fed feedback is safe for concurrent read-only use; learning
// instances belong to exactly one simulation run (NewSimulator forks).
type Ensemble struct {
	name    string
	eta     float64
	members []Member
	weights []float64 // normalized, parallel to members
	initial []float64 // normalized starting weights (forks restart here)

	tallies []tally // per-member scorecards, parallel to members
	self    tally   // the ensemble's own scorecard
}

// New builds an ensemble. Weights may be nil (uniform) or one positive
// value per member; they are normalized. Member names must be unique —
// they key the per-member stats everywhere downstream.
func New(name string, members []Member, weights []float64, eta float64) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("predict: ensemble %q has no members", name)
	}
	if weights != nil && len(weights) != len(members) {
		return nil, fmt.Errorf("predict: %d weights for %d members", len(weights), len(members))
	}
	if eta == 0 {
		eta = DefaultEta
	}
	if eta < 0 {
		return nil, fmt.Errorf("predict: negative learning rate %v", eta)
	}
	w := make([]float64, len(members))
	sum := 0.0
	seen := map[string]bool{}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("predict: nil member %d", i)
		}
		if seen[m.Name()] {
			return nil, fmt.Errorf("predict: duplicate member %q", m.Name())
		}
		seen[m.Name()] = true
		w[i] = 1
		if weights != nil {
			if weights[i] <= 0 || math.IsNaN(weights[i]) || math.IsInf(weights[i], 0) {
				return nil, fmt.Errorf("predict: member %q weight %v must be a positive finite number", m.Name(), weights[i])
			}
			w[i] = weights[i]
		}
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return &Ensemble{
		name:    name,
		eta:     eta,
		members: members,
		weights: w,
		initial: append([]float64(nil), w...),
		tallies: make([]tally, len(members)),
	}, nil
}

// Name returns the ensemble's spec string.
func (e *Ensemble) Name() string { return e.name }

// Members returns the member names in ballot order.
func (e *Ensemble) Members() []string {
	out := make([]string, len(e.members))
	for i, m := range e.members {
		out[i] = m.Name()
	}
	return out
}

type ballot struct {
	sizeKB int
	conf   float64
	ok     bool
}

// ballots collects every member's vote. A member that errors abstains this
// round (deterministically — the error depends only on the inputs).
func (e *Ensemble) ballots(f stats.Features) []ballot {
	bs := make([]ballot, len(e.members))
	for i, m := range e.members {
		size, conf, err := m.Predict(f)
		if err != nil {
			continue
		}
		if conf <= 0 {
			conf = coldConfidence
		}
		if conf > 1 {
			conf = 1
		}
		bs[i] = ballot{sizeKB: size, conf: conf, ok: true}
	}
	return bs
}

// decide reduces ballots to the ensemble's prediction: the size with the
// highest weight×confidence score, ties resolved toward the smaller cache.
func (e *Ensemble) decide(bs []ballot) (int, error) {
	score := map[int]float64{}
	any := false
	for i, b := range bs {
		if !b.ok {
			continue
		}
		score[b.sizeKB] += e.weights[i] * b.conf
		any = true
	}
	if !any {
		return 0, fmt.Errorf("predict: every member of %q abstained", e.name)
	}
	best, bestScore := 0, 0.0
	for _, size := range cache.Sizes() { // ascending: deterministic tie-break
		if s := score[size]; best == 0 || s > bestScore {
			best, bestScore = size, s
		}
	}
	return best, nil
}

// PredictSizeKB implements core.Predictor.
func (e *Ensemble) PredictSizeKB(f stats.Features) (int, error) {
	return e.decide(e.ballots(f))
}

// Votes implements core.VotingPredictor: the named, weighted member
// ballots behind PredictSizeKB, in fixed member order.
func (e *Ensemble) Votes(f stats.Features) ([]core.Vote, error) {
	bs := e.ballots(f)
	out := make([]core.Vote, 0, len(bs))
	for i, b := range bs {
		if !b.ok {
			continue
		}
		out = append(out, core.Vote{
			Name: e.members[i].Name(), SizeKB: b.sizeKB,
			Weight: e.weights[i], Confidence: b.conf,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("predict: every member of %q abstained", e.name)
	}
	return out, nil
}

// MemberVotes implements core.VotePredictor (the legacy per-size
// vote-count audit view): one count per member ballot.
func (e *Ensemble) MemberVotes(f stats.Features) (map[int]int, error) {
	bs := e.ballots(f)
	votes := map[int]int{}
	for _, b := range bs {
		if b.ok {
			votes[b.sizeKB]++
		}
	}
	if len(votes) == 0 {
		return nil, fmt.Errorf("predict: every member of %q abstained", e.name)
	}
	return votes, nil
}

// ObserveRegret implements core.RegretObserver — the multiplicative-
// weights round. Every member's ballot is scored by the energy regret of
// the size it voted for, losses are normalized to [0, 1] by the round's
// worst-case regret, weights shift by w ← w·e^(−η·loss), and learning
// members then absorb the observed best size.
func (e *Ensemble) ObserveRegret(f stats.Features, chosenKB, bestKB int, regretBySizeNJ map[int]float64, energyNJ float64) {
	bs := e.ballots(f)
	maxR := 0.0
	for _, r := range regretBySizeNJ {
		if r > maxR {
			maxR = r
		}
	}
	// Score the ensemble's own (pre-update) decision.
	if own, err := e.decide(bs); err == nil {
		e.self.predictions++
		if own == bestKB {
			e.self.hits++
		}
		e.self.regretNJ += regretBySizeNJ[own]
	}
	// Score each member and update its weight.
	for i, b := range bs {
		if !b.ok {
			continue
		}
		r := regretBySizeNJ[b.sizeKB]
		e.tallies[i].predictions++
		if b.sizeKB == bestKB {
			e.tallies[i].hits++
		}
		e.tallies[i].regretNJ += r
		loss := 0.0
		if maxR > 0 {
			loss = r / maxR
		}
		e.weights[i] *= math.Exp(-e.eta * loss)
	}
	e.renormalize()
	for _, m := range e.members {
		if l, ok := m.(Learner); ok {
			l.Learn(f, bestKB)
		}
	}
}

// Observe implements core.FeedbackPredictor, the coarser hook: without a
// regret profile, members that missed the best size take a unit loss.
func (e *Ensemble) Observe(f stats.Features, chosenKB, bestKB int, energyNJ float64) {
	unit := map[int]float64{}
	for _, size := range cache.Sizes() {
		if size != bestKB {
			unit[size] = 1
		}
	}
	e.ObserveRegret(f, chosenKB, bestKB, unit, energyNJ)
}

// renormalize rescales weights to sum 1, flooring each at minWeight so no
// member is ever irrecoverably zeroed. A degenerate (all-underflowed) set
// resets to the initial weights.
func (e *Ensemble) renormalize() {
	maxW := 0.0
	for _, w := range e.weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 || math.IsNaN(maxW) || math.IsInf(maxW, 0) {
		copy(e.weights, e.initial)
		return
	}
	sum := 0.0
	for i := range e.weights {
		e.weights[i] /= maxW // scale-invariant: guards exp underflow
		if e.weights[i] < minWeight {
			e.weights[i] = minWeight
		}
		sum += e.weights[i]
	}
	for i := range e.weights {
		e.weights[i] /= sum
	}
}

// Fork implements core.ForkingPredictor: a fresh ensemble at the initial
// weights, with learning members reset and static members sharing their
// trained model behind a per-fork ballot memo. Each simulation run learns
// its own trajectory; the original is not mutated.
func (e *Ensemble) Fork() core.Predictor {
	members := make([]Member, len(e.members))
	for i, m := range e.members {
		if fm, ok := m.(forkable); ok {
			members[i] = fm.fork()
		} else {
			members[i] = m
		}
	}
	ne, err := New(e.name, members, append([]float64(nil), e.initial...), e.eta)
	if err != nil {
		// Unreachable: the receiver already validated the same inputs.
		panic(fmt.Sprintf("predict: fork: %v", err))
	}
	return ne
}

// PredictorSnapshot implements core.PredictorReporter.
func (e *Ensemble) PredictorSnapshot() core.PredictorStats {
	ps := core.PredictorStats{
		Name:        e.name,
		Predictions: e.self.predictions,
		Hits:        e.self.hits,
		RegretNJ:    e.self.regretNJ,
		Members:     make([]core.MemberStats, len(e.members)),
	}
	for i, m := range e.members {
		ps.Members[i] = core.MemberStats{
			Name:        m.Name(),
			Weight:      e.weights[i],
			Predictions: e.tallies[i].predictions,
			Hits:        e.tallies[i].hits,
			RegretNJ:    e.tallies[i].regretNJ,
		}
	}
	return ps
}
