package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs, linearly
// interpolated between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples of n that lie above the p-th percentile's
// nearest rank.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return n - rank
}

// tailPercentile returns the highest of the p90 and p99 percentiles that
// has at least ten samples beyond it, or 0 when the sample supports
// neither: a tail figure resting on fewer samples moves with a single op.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99} {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix64 is the stateless mixer every seed of a run derives from.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
