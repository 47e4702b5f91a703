package predict

import (
	"math"
	"slices"

	"hetsched/internal/stats"
)

type nnSample struct {
	x    [stats.NumSelected]float64
	size int
}

// nnCand is one stored sample's distance to a query.
type nnCand struct {
	d   float64
	idx int
}

// Nearest is the online nearest-neighbor member: observed (features, best
// size) pairs, queried by k-nearest majority under per-dimension z-scored
// distance. Normalization statistics run online (Welford), so early
// queries use whatever scale has been seen so far. Exact-duplicate feature
// vectors update their stored label instead of growing the sample set, so
// memory is bounded by the number of distinct profiles observed.
type Nearest struct {
	k       int
	samples []nnSample
	index   map[[stats.NumSelected]float64]int

	// Welford running moments per dimension over inserted samples.
	n    int
	mean [stats.NumSelected]float64
	m2   [stats.NumSelected]float64

	// cands is Predict's candidate buffer on a fork, which one run owns;
	// nil on an instance NewNearest returns, whose Predict allocates and
	// so stays safe for concurrent use.
	cands *[]nnCand
}

// NewNearest returns an empty k-nearest-neighbor member (k clamped to at
// least 1; 0 means the conventional k=3).
func NewNearest(k int) *Nearest {
	if k <= 0 {
		k = 3
	}
	return &Nearest{k: k, index: map[[stats.NumSelected]float64]int{}}
}

// Name implements Member.
func (nn *Nearest) Name() string { return "nn" }

// selectedOf reads the selected features in place (Features.Select
// without the slice).
func selectedOf(f stats.Features) [stats.NumSelected]float64 {
	var x [stats.NumSelected]float64
	for i, idx := range stats.SelectedIndices() {
		x[i] = f[idx]
	}
	return x
}

// Predict implements Member: majority best size of the k nearest stored
// samples, confidence the majority fraction. Cold start casts the
// base-size fallback ballot.
func (nn *Nearest) Predict(f stats.Features) (int, float64, error) {
	if len(nn.samples) == 0 {
		return coldSizeKB(), coldConfidence, nil
	}
	x := selectedOf(f)
	var std [stats.NumSelected]float64
	for i := range std {
		std[i] = 1
		if nn.n > 1 {
			if s := math.Sqrt(nn.m2[i] / float64(nn.n)); s > 0 {
				std[i] = s
			}
		}
	}
	var cands []nnCand
	if nn.cands != nil {
		cands = (*nn.cands)[:0]
	} else {
		cands = make([]nnCand, 0, len(nn.samples))
	}
	for i := range nn.samples {
		d := 0.0
		for j := range x {
			r := (x[j] - nn.samples[i].x[j]) / std[j]
			d += r * r
		}
		cands = append(cands, nnCand{d: d, idx: i})
	}
	if nn.cands != nil {
		*nn.cands = cands
	}
	// Stable by distance: equal distances resolve toward the earlier
	// insertion, keeping the vote deterministic.
	slices.SortStableFunc(cands, func(a, b nnCand) int {
		switch {
		case a.d < b.d:
			return -1
		case b.d < a.d:
			return 1
		}
		return 0
	})
	k := nn.k
	if k > len(cands) {
		k = len(cands)
	}
	var votes counts
	for _, c := range cands[:k] {
		votes.add(nn.samples[c.idx].size)
	}
	size, n, total := votes.majority()
	return size, float64(n) / float64(total), nil
}

// Learn implements Learner.
func (nn *Nearest) Learn(f stats.Features, bestKB int) {
	x := selectedOf(f)
	if i, ok := nn.index[x]; ok {
		nn.samples[i].size = bestKB
		return
	}
	nn.index[x] = len(nn.samples)
	nn.samples = append(nn.samples, nnSample{x: x, size: bestKB})
	nn.n++
	for j := range x {
		delta := x[j] - nn.mean[j]
		nn.mean[j] += delta / float64(nn.n)
		nn.m2[j] += delta * (x[j] - nn.mean[j])
	}
}

func (nn *Nearest) fork() Member {
	f := NewNearest(nn.k)
	f.cands = new([]nnCand)
	return f
}
