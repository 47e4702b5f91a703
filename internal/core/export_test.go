package core

// Test-only API: inspection helpers and the degenerate fixed-size
// predictor the ablation tests use. No program reads them.

import (
	"sort"

	"hetsched/internal/stats"
)

// Dead reports permanent loss.
func (c *SimCore) Dead() bool { return c.dead }

// BusyEnergy is the non-idle portion.
func (m Metrics) BusyEnergy() float64 {
	return m.DynamicEnergy + m.StaticEnergy + m.CoreEnergy + m.ProfilingEnergy
}

// SizeClasses returns the distinct core sizes present in the spec in
// ascending order — the fallback ladder the resilient scheduler walks when
// a predicted size has no surviving cores.
func (s SystemSpec) SizeClasses() []int {
	seen := map[int]bool{}
	var out []int
	for _, kb := range s.CoreSizesKB {
		if !seen[kb] {
			seen[kb] = true
			out = append(out, kb)
		}
	}
	sort.Ints(out)
	return out
}

// FixedPredictor always predicts the same size (degenerate ablation).
type FixedPredictor struct {
	SizeKB int
}

// PredictSizeKB implements Predictor.
func (p FixedPredictor) PredictSizeKB(stats.Features) (int, error) {
	return p.SizeKB, nil
}
