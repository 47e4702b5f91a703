package predict

// Test-only API: the Table learns through its ensemble in production,
// which hands it the fingerprint directly.

import "hetsched/internal/stats"

// Learn implements Learner.
func (t *Table) Learn(f stats.Features, bestKB int) {
	t.learnKey(keyOf(f), bestKB)
}
