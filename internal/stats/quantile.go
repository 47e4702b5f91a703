package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Reservoir is a streaming quantile estimator over an unbounded observation
// stream using Vitter's Algorithm R: the first Cap observations are kept
// exactly, after which each new observation replaces a uniformly random slot
// with probability Cap/n. Quantiles over the retained sample converge to the
// stream quantiles; while the stream is shorter than Cap they are exact.
//
// The estimator powers the scheduling daemon's p50/p95/p99 service-latency
// metrics, where a bounded-memory sketch matters more than the last decimal.
// A Reservoir is NOT safe for concurrent use; callers that share one across
// goroutines (e.g. internal/server) must hold their own lock.
type Reservoir struct {
	vals []float64
	cap  int
	n    int64
	rng  *rand.Rand
}

// NewReservoir builds an estimator retaining at most capacity observations.
// The seed drives replacement draws, keeping runs reproducible.
func NewReservoir(capacity int, seed int64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stats: reservoir capacity %d < 1", capacity)
	}
	return &Reservoir{
		vals: make([]float64, 0, capacity),
		cap:  capacity,
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// Observe feeds one observation into the stream. NaN observations are
// dropped: they would poison every later quantile via sort order.
func (r *Reservoir) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	r.n++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if i := r.rng.Int63n(r.n); i < int64(r.cap) {
		r.vals[i] = v
	}
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the stream by
// linear interpolation over the sorted retained sample. It returns 0 when
// nothing has been observed and an error when q is out of range.
func (r *Reservoir) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0, 1]", q)
	}
	if len(r.vals) == 0 {
		return 0, nil
	}
	sorted := append([]float64(nil), r.vals...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Quantiles evaluates several quantiles in one pass, in input order.
func (r *Reservoir) Quantiles(qs ...float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := r.Quantile(q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
