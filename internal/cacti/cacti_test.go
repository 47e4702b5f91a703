package cacti

import (
	"math"
	"testing"

	"hetsched/internal/cache"
)

func TestHitEnergyInPublishedRange(t *testing.T) {
	m := NewDefault()
	for _, c := range cache.DesignSpace() {
		e := m.HitEnergy(c)
		if e < 0.08 || e > 2.0 {
			t.Errorf("%s: hit energy %.3f nJ outside plausible 0.18um range", c, e)
		}
	}
	// Anchor points: small direct-mapped cache well below large 4-way.
	small := m.HitEnergy(cache.Config{SizeKB: 2, Ways: 1, LineBytes: 16})
	big := m.HitEnergy(cache.BaseConfig)
	if big < 2*small {
		t.Errorf("8KB_4W_64B (%.3f) should cost well over 2x 2KB_1W_16B (%.3f)", big, small)
	}
}

func TestHitEnergyMonotoneInWays(t *testing.T) {
	m := NewDefault()
	for _, size := range cache.Sizes() {
		for _, l := range cache.LineSizes() {
			prev := -1.0
			for _, w := range cache.Associativities(size) {
				c := cache.Config{SizeKB: size, Ways: w, LineBytes: l}
				e := m.HitEnergy(c)
				if prev >= 0 && e <= prev {
					t.Errorf("hit energy not increasing in ways at %s: %.4f <= %.4f", c, e, prev)
				}
				prev = e
			}
		}
	}
}

func TestHitEnergyMonotoneInLineSize(t *testing.T) {
	m := NewDefault()
	for _, size := range cache.Sizes() {
		for _, w := range cache.Associativities(size) {
			prev := -1.0
			for _, l := range cache.LineSizes() {
				c := cache.Config{SizeKB: size, Ways: w, LineBytes: l}
				e := m.HitEnergy(c)
				if prev >= 0 && e <= prev {
					t.Errorf("hit energy not increasing in line size at %s", c)
				}
				prev = e
			}
		}
	}
}

func TestHitEnergyMonotoneInSizeSameGeometry(t *testing.T) {
	m := NewDefault()
	// Same ways/line, growing size => more sets => deeper decode => more energy.
	for _, w := range []int{1} {
		for _, l := range cache.LineSizes() {
			prev := -1.0
			for _, size := range cache.Sizes() {
				c := cache.Config{SizeKB: size, Ways: w, LineBytes: l}
				e := m.HitEnergy(c)
				if prev >= 0 && e <= prev {
					t.Errorf("hit energy not increasing in size at %s", c)
				}
				prev = e
			}
		}
	}
}

func TestFillEnergyGrowsWithLine(t *testing.T) {
	m := NewDefault()
	e16 := m.FillEnergy(cache.Config{SizeKB: 8, Ways: 4, LineBytes: 16})
	e64 := m.FillEnergy(cache.Config{SizeKB: 8, Ways: 4, LineBytes: 64})
	if e64 <= e16 {
		t.Errorf("fill energy should grow with line size: %.4f <= %.4f", e64, e16)
	}
}

func TestLeakageScalesLinearlyWithSizeAndCycles(t *testing.T) {
	m := NewDefault()
	base := m.LeakageEnergy(2, 1_000_000)
	if got := m.LeakageEnergy(4, 1_000_000); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("leakage not linear in size: %v vs %v", got, 2*base)
	}
	if got := m.LeakageEnergy(2, 2_000_000); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("leakage not linear in cycles: %v vs %v", got, 2*base)
	}
	if m.LeakageEnergy(8, 0) != 0 {
		t.Error("leakage over zero cycles should be zero")
	}
}

func TestNewRejectsZeroParams(t *testing.T) {
	if _, err := New(Params{}); err == nil {
		t.Error("New(zero params) succeeded")
	}
}

// Golden calibration test: pins the default 0.18 µm energy table so an
// accidental coefficient change (which would silently re-label every
// benchmark's best configuration) fails loudly. Values in nJ, 3 decimals.
func TestDefaultEnergyTableGolden(t *testing.T) {
	golden := map[cache.Config]float64{
		{SizeKB: 2, Ways: 1, LineBytes: 16}: 0.236,
		{SizeKB: 2, Ways: 1, LineBytes: 64}: 0.404,
		{SizeKB: 4, Ways: 2, LineBytes: 32}: 0.431,
		{SizeKB: 8, Ways: 1, LineBytes: 64}: 0.424,
		{SizeKB: 8, Ways: 4, LineBytes: 16}: 0.476,
		{SizeKB: 8, Ways: 4, LineBytes: 64}: 1.212,
	}
	m := NewDefault()
	for cfg, want := range golden {
		got := m.HitEnergy(cfg)
		if math.Abs(got-want) > 0.0005 {
			t.Errorf("HitEnergy(%s) = %.4f nJ, golden %.3f — recalibration detected; "+
				"update the golden table AND re-verify EXPERIMENTS.md if intentional",
				cfg, got, want)
		}
	}
	if got := m.OffChipEnergy(); math.Abs(got-4.95) > 1e-9 {
		t.Errorf("OffChipEnergy = %v, golden 4.95", got)
	}
}

func TestOffChipEnergyDominatesHit(t *testing.T) {
	m := NewDefault()
	for _, c := range cache.DesignSpace() {
		if m.OffChipEnergy() <= m.HitEnergy(c) {
			t.Errorf("off-chip energy should dominate every hit energy (%s)", c)
		}
	}
}
