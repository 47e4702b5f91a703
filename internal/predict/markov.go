package predict

import "hetsched/internal/stats"

// Markov is the job-sequence-context member: a first-order markov chain
// over the stream of observed best sizes. It ignores the features entirely
// and predicts the most likely next best size given the previous one —
// cheap temporal-locality exploitation (bursts of the same application
// class arrive together under many real workloads).
type Markov struct {
	prev     int               // last observed best size (0 = none yet)
	trans    [sizeCount]counts // prev best size → next best size counts, indexed like cache.Sizes()
	marginal counts            // marginal best-size counts
}

// NewMarkov returns an empty markov-chain member.
func NewMarkov() *Markov { return &Markov{} }

// Name implements Member.
func (m *Markov) Name() string { return "markov" }

// Predict implements Member: the plurality transition out of the last
// observed best size, falling back to the marginal distribution at
// discounted confidence, then to the cold base-size ballot.
func (m *Markov) Predict(stats.Features) (int, float64, error) {
	if m.prev != 0 {
		if size, votes, total := m.trans[sizeIndex(m.prev)].majority(); total > 0 {
			return size, float64(votes) / float64(total), nil
		}
	}
	if size, votes, total := m.marginal.majority(); total > 0 {
		return size, 0.5 * float64(votes) / float64(total), nil
	}
	return coldSizeKB(), coldConfidence, nil
}

// Learn implements Learner: one step of the observed best-size chain. A
// best size outside the design space is not a step.
func (m *Markov) Learn(_ stats.Features, bestKB int) {
	i := sizeIndex(bestKB)
	if i < 0 {
		return
	}
	if m.prev != 0 {
		m.trans[sizeIndex(m.prev)][i]++
	}
	m.marginal[i]++
	m.prev = bestKB
}

func (m *Markov) fork() Member { return NewMarkov() }
