package predict

import (
	"math"

	"hetsched/internal/stats"
)

// tableKey is a quantized counter fingerprint: each selected profiling
// statistic bucketed on a half-log2 scale. Buckets are coarse enough that
// the small multiplicative perturbations of injected counter noise land in
// the same cell, so a noisy re-profile still finds its kernel.
type tableKey [stats.NumSelected]int8

func keyOf(f stats.Features) tableKey {
	var k tableKey
	for i, v := range selectedOf(f) {
		b := math.Log2(1+math.Abs(v)) * 2
		q := int(b)
		if v < 0 {
			q = -q
		}
		if q > math.MaxInt8 {
			q = math.MaxInt8
		}
		if q < math.MinInt8 {
			q = math.MinInt8
		}
		k[i] = int8(q)
	}
	return k
}

// Table is the per-kernel lookup-table member: observed best sizes counted
// per counter fingerprint. After one observation of a kernel it answers
// near-oracle for that kernel; unseen fingerprints fall back to the global
// best-size distribution.
type Table struct {
	cells  map[tableKey]*counts
	global counts
}

// NewTable returns an empty lookup-table member.
func NewTable() *Table {
	return &Table{cells: map[tableKey]*counts{}}
}

// Name implements Member.
func (t *Table) Name() string { return "table" }

// Predict implements Member: plurality best size of the fingerprint's
// cell; an unseen fingerprint answers from the global distribution at
// discounted confidence; a cold table casts the base-size fallback ballot.
func (t *Table) Predict(f stats.Features) (int, float64, error) {
	return t.predictKey(keyOf(f))
}

// predictKey is Predict given the fingerprint, which a fork memoizes.
func (t *Table) predictKey(k tableKey) (int, float64, error) {
	if cell := t.cells[k]; cell != nil {
		size, votes, total := cell.majority()
		return size, float64(votes) / float64(total), nil
	}
	if size, votes, total := t.global.majority(); total > 0 {
		return size, 0.5 * float64(votes) / float64(total), nil
	}
	return coldSizeKB(), coldConfidence, nil
}

// learnKey records bestKB under the fingerprint k. A best size outside the
// design space is not counted, so a cell exists only once it holds a count.
func (t *Table) learnKey(k tableKey, bestKB int) {
	i := sizeIndex(bestKB)
	if i < 0 {
		return
	}
	cell := t.cells[k]
	if cell == nil {
		cell = new(counts)
		t.cells[k] = cell
	}
	cell[i]++
	t.global[i]++
}

func (t *Table) fork() Member { return NewTable() }
