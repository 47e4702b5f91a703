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

// memoCap bounds a fork's per-features memo. Counter noise makes the
// features of a run unbounded, so a full memo is dropped rather than
// grown, as in the ANN bag's memo.
const memoCap = 4096

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

	// A fork's memos (see Fork). Both stay nil on an ensemble New builds,
	// which therefore never writes under prediction.
	memo  map[featureBits]seen // bounded by memoCap
	round *round               // the last ballot round
}

// featureBits is a feature vector's bit pattern, the key of a fork's
// memos. It hashes as plain memory, where a float array hashes element by
// element, and members are pure functions of the features, so answers
// kept under equal bits are exact.
type featureBits [stats.NumFeatures]uint64

func bitsOf(f stats.Features) featureBits {
	var b featureBits
	for i, v := range f {
		b[i] = math.Float64bits(v)
	}
	return b
}

// seen is what a fork remembers about one feature vector. Both fields are
// pure functions of the features, so an entry never goes stale.
type seen struct {
	fp     tableKey // the Table fingerprint
	static []ballot // each Static member's ballot once cast, parallel to members
}

// round is a fork's last ballot round: the ballots every member cast for
// the features with bit pattern key. It stands until a member learns.
type round struct {
	key   featureBits
	seen  seen     // key's memo entry
	bs    []ballot // reused from round to round
	valid bool
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

type ballot struct {
	sizeKB int
	conf   float64
	ok     bool
}

// cast turns a member's answer into its ballot. An error abstains
// (deterministically — the error depends only on the inputs); the
// confidence is clamped into (0, 1].
func cast(size int, conf float64, err error) ballot {
	if err != nil {
		return ballot{}
	}
	if conf <= 0 {
		conf = coldConfidence
	}
	if conf > 1 {
		conf = 1
	}
	return ballot{sizeKB: size, conf: conf, ok: true}
}

// ballots collects every member's vote. A fork answers from its last round
// while no member has learned since, and otherwise runs the round on f's
// memo entry: the Table reads the memoized fingerprint and a Static member
// is asked once per features (an abstention is asked again). An unforked
// ensemble asks every member afresh into a new slice. The slice a fork
// returns is its round buffer: callers must not keep it.
func (e *Ensemble) ballots(f stats.Features) []ballot {
	if e.memo == nil {
		bs := make([]ballot, len(e.members))
		for i, m := range e.members {
			bs[i] = cast(m.Predict(f))
		}
		return bs
	}
	r, key := e.round, bitsOf(f)
	if r.valid && r.key == key {
		return r.bs
	}
	sn := e.recall(key, f)
	for i, m := range e.members {
		switch m := m.(type) {
		case *Static:
			if !sn.static[i].ok {
				sn.static[i] = cast(m.Predict(f))
			}
			r.bs[i] = sn.static[i]
		case *Table:
			r.bs[i] = cast(m.predictKey(sn.fp))
		default:
			r.bs[i] = cast(m.Predict(f))
		}
	}
	r.key, r.seen, r.valid = key, sn, true
	return r.bs
}

// recall returns a fork's memo entry for f, whose bit pattern is key,
// creating it on first sight.
func (e *Ensemble) recall(key featureBits, f stats.Features) seen {
	if sn, ok := e.memo[key]; ok {
		return sn
	}
	if len(e.memo) >= memoCap {
		clear(e.memo)
	}
	sn := seen{fp: keyOf(f), static: make([]ballot, len(e.members))}
	e.memo[key] = sn
	return sn
}

// decide reduces ballots to the ensemble's prediction: the size with the
// highest weight×confidence score, ties resolved toward the smaller cache.
func (e *Ensemble) decide(bs []ballot) (int, error) {
	var score [sizeCount]float64
	any := false
	for i, b := range bs {
		if !b.ok {
			continue
		}
		if j := sizeIndex(b.sizeKB); j >= 0 {
			score[j] += e.weights[i] * b.conf
		}
		any = true
	}
	if !any {
		return 0, fmt.Errorf("predict: every member of %q abstained", e.name)
	}
	best, bestScore := 0, 0.0
	for j, size := range cache.Sizes() { // ascending: deterministic tie-break
		if s := score[j]; best == 0 || s > bestScore {
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
	e.learn(f, bestKB)
}

// learn hands the observed best size to the learning members. It ends a
// fork's ballot round first, since the members are about to change; the
// Table learns under the fingerprint of f's memo entry, which the caller's
// ballot round for f has just recalled.
func (e *Ensemble) learn(f stats.Features, bestKB int) {
	var sn *seen
	if e.round != nil {
		sn = &e.round.seen
		e.round.valid = false
	}
	for _, m := range e.members {
		switch m := m.(type) {
		case *Table:
			if sn != nil {
				m.learnKey(sn.fp, bestKB)
			} else {
				m.learnKey(keyOf(f), bestKB)
			}
		case Learner:
			m.Learn(f, bestKB)
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
// weights, with learning members reset and static members shared. Each
// simulation run learns its own trajectory; the original is not mutated.
// A fork belongs to one run, so it also keeps the memos an unforked
// ensemble must not write: its last ballot round, and per features the
// Table fingerprint and the Static members' ballots.
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
	ne.memo = map[featureBits]seen{}
	ne.round = &round{bs: make([]ballot, len(members))}
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
