// Package predict implements the online-learning predictor ensemble: cheap
// heterogeneous best-cache-size predictors (a per-kernel lookup table keyed
// on counter fingerprints, a markov model over job-sequence context, a
// nearest-neighbor over characterization features) composed with the
// offline-trained kinds (ANN bag, linear, kNN, stump, tree) under
// per-member weights re-estimated online via multiplicative-weights
// updates from observed post-run energy regret.
//
// The scheduler feeds outcomes back through internal/core's completion
// path (core.RegretObserver): after every completed execution of a
// profiled application the ground truth is known, each member's ballot is
// scored by the energy regret it would have incurred, weights shift
// multiplicatively toward low-regret members, and learning members absorb
// the observed best size. The Hedge guarantee makes the ensemble's
// cumulative regret track the best member's.
package predict

import (
	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/stats"
)

// Member is one predictor inside an ensemble: a named ballot with a
// self-reported confidence in (0, 1].
type Member interface {
	// Name identifies the member ("table", "markov", "ann", ...).
	Name() string
	// Predict returns the member's best-size ballot and its confidence.
	Predict(f stats.Features) (sizeKB int, confidence float64, err error)
}

// Learner is a Member that learns online from observed outcomes: after a
// completed execution the ensemble reports the profiled features and the
// ground-truth best size.
type Learner interface {
	Member
	Learn(f stats.Features, bestKB int)
}

// forkable is the internal per-run-state capability: members hand each
// ensemble fork a fresh private copy. Learning members reset their state;
// Static members share their trained model and start an empty memo.
type forkable interface {
	fork() Member
}

// Static adapts a fixed trained predictor (ANN bag, oracle, mlbase
// baselines) into an ensemble Member. It never learns. The shared trained
// predictor is never copied; each ensemble fork gets its own Static over
// it that memoizes ballots by features, which is exact because a fixed
// predictor is a pure function of its features (core's purity contract).
// The instance Wrap returns keeps no memo, so it stays read-only and safe
// for concurrent use.
type Static struct {
	name string
	p    core.Predictor
	memo map[stats.Features]ballot // per-fork; nil on the shared original
}

// Wrap names a fixed predictor as an ensemble member.
func Wrap(name string, p core.Predictor) *Static {
	return &Static{name: name, p: p}
}

// Name implements Member.
func (s *Static) Name() string { return s.name }

// fork implements forkable: a view of the same trained predictor with an
// empty private memo.
func (s *Static) fork() Member {
	return &Static{name: s.name, p: s.p, memo: map[stats.Features]ballot{}}
}

// Predict implements Member. Predictors that expose per-member votes (the
// ANN bag) report the plurality fraction of their internal vote as
// confidence; everything else votes with full confidence and lets the
// ensemble weights do the discounting. Errors are not memoized.
func (s *Static) Predict(f stats.Features) (int, float64, error) {
	if b, ok := s.memo[f]; ok {
		return b.sizeKB, b.conf, nil
	}
	size, conf, err := s.predict(f)
	if err != nil {
		return 0, 0, err
	}
	if s.memo != nil {
		s.memo[f] = ballot{sizeKB: size, conf: conf, ok: true}
	}
	return size, conf, nil
}

func (s *Static) predict(f stats.Features) (int, float64, error) {
	size, err := s.p.PredictSizeKB(f)
	if err != nil {
		return 0, 0, err
	}
	conf := 1.0
	if vp, ok := s.p.(core.VotePredictor); ok {
		if votes, err := vp.MemberVotes(f); err == nil {
			total := 0
			for _, n := range votes {
				total += n
			}
			if total > 0 {
				conf = float64(votes[size]) / float64(total)
				if conf <= 0 {
					// The averaged prediction can sit outside the
					// plurality; never report zero confidence for the
					// size actually predicted.
					conf = 1 / float64(total)
				}
			}
		}
	}
	return size, conf, nil
}

// coldConfidence is the confidence of a fallback ballot cast before a
// learning member has seen any outcome.
const coldConfidence = 0.05

// coldSizeKB is the fallback ballot itself: the paper's base (profiling)
// configuration size.
func coldSizeKB() int { return cache.BaseConfig.SizeKB }

// majority returns the plurality size of a per-size count map and the
// total count, iterating the design-space sizes in ascending order so ties
// resolve deterministically toward the smaller cache.
func majority(counts map[int]int) (sizeKB, votes, total int) {
	sizeKB = coldSizeKB()
	for _, s := range cache.Sizes() {
		n := counts[s]
		total += n
		if n > votes {
			votes, sizeKB = n, s
		}
	}
	return sizeKB, votes, total
}
