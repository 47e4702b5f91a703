package energy

import (
	"math"
	"testing"
	"testing/quick"

	"hetsched/internal/cache"
	"hetsched/internal/cacti"
)

func TestMissPenaltyMatchesPaperFormula(t *testing.T) {
	m := NewDefault()
	// missLatency=40, bandwidth = 50% of 40 = 20 per 16B beat.
	cases := []struct {
		cfg  cache.Config
		want uint64
	}{
		{cache.Config{SizeKB: 8, Ways: 4, LineBytes: 16}, 40 + 1*20},
		{cache.Config{SizeKB: 8, Ways: 4, LineBytes: 32}, 40 + 2*20},
		{cache.Config{SizeKB: 8, Ways: 4, LineBytes: 64}, 40 + 4*20},
		{cache.Config{SizeKB: 2, Ways: 1, LineBytes: 16}, 40 + 1*20},
	}
	for _, tc := range cases {
		got := m.MissPenaltyCycles(tc.cfg)
		if got != tc.want {
			t.Errorf("MissPenaltyCycles(%s) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestMissCyclesLinearInMisses(t *testing.T) {
	m := NewDefault()
	c := cache.BaseConfig
	if got := m.MissCycles(c, 0); got != 0 {
		t.Errorf("MissCycles(0) = %d", got)
	}
	one := m.MissCycles(c, 1)
	if got := m.MissCycles(c, 1000); got != 1000*one {
		t.Errorf("MissCycles not linear: %d vs %d", got, 1000*one)
	}
}

func TestStaticPerCycleTenPercentRule(t *testing.T) {
	m := NewDefault()
	baseHit := cacti.NewDefault().HitEnergy(cache.BaseConfig)
	wantPerKB := baseHit * 0.10 / 8
	for _, size := range cache.Sizes() {
		got := m.StaticPerCycle(size)
		want := wantPerKB * float64(size)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("StaticPerCycle(%d) = %v, want %v", size, got, want)
		}
	}
}

func TestStaticEnergyProportionalToSize(t *testing.T) {
	m := NewDefault()
	e2 := m.StaticEnergy(2, 1000)
	e8 := m.StaticEnergy(8, 1000)
	if math.Abs(e8-4*e2) > 1e-9 {
		t.Errorf("static energy not proportional to size: %v vs %v", e8, 4*e2)
	}
}

func TestMissEnergyComponents(t *testing.T) {
	m := NewDefault()
	c := cache.BaseConfig
	cm := cacti.NewDefault()
	want := cm.OffChipEnergy() +
		float64(m.MissPenaltyCycles(c))*m.Params().StallNJPerCycle +
		cm.FillEnergy(c)
	if got := m.MissEnergy(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("MissEnergy = %v, want %v", got, want)
	}
	// A miss must cost far more than a hit.
	if m.MissEnergy(c) < 5*cm.HitEnergy(c) {
		t.Error("miss energy implausibly close to hit energy")
	}
}

func TestDynamicEnergyDecomposition(t *testing.T) {
	m := NewDefault()
	c := cache.Config{SizeKB: 4, Ways: 2, LineBytes: 32}
	hits, misses := uint64(9000), uint64(1000)
	got := m.DynamicEnergy(c, hits, misses)
	want := float64(hits)*m.Cacti().HitEnergy(c) + float64(misses)*m.MissEnergy(c)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("DynamicEnergy = %v, want %v", got, want)
	}
}

func TestTotalBreakdownSums(t *testing.T) {
	m := NewDefault()
	c := cache.BaseConfig
	b := m.Total(c, 10000, 500, 60000)
	if math.Abs(b.Total-(b.Static+b.Dynamic+b.Core)) > 1e-9 {
		t.Errorf("breakdown does not sum: %+v", b)
	}
	if b.Static <= 0 || b.Dynamic <= 0 || b.Core <= 0 {
		t.Errorf("non-positive components: %+v", b)
	}
}

func TestIdleEnergyBelowBusy(t *testing.T) {
	m := NewDefault()
	cm := cacti.NewDefault()
	for _, size := range cache.Sizes() {
		idle := m.IdlePerCycle(size)
		if idle <= 0 {
			t.Errorf("idle per-cycle non-positive for %dKB", size)
		}
		// A busy core burns static + core-active + dynamic cache energy.
		// With a typical embedded access rate (~0.3 accesses/cycle), busy
		// must exceed idle; the gap funds the energy-advantageous decision.
		cfg := cache.Config{SizeKB: size, Ways: 1, LineBytes: 16}
		busy := m.StaticPerCycle(size) + m.Params().CoreActiveNJPerCycle +
			0.3*cm.HitEnergy(cfg)
		if idle >= busy {
			t.Errorf("%dKB: idle per-cycle (%v) should be below busy (%v)", size, idle, busy)
		}
	}
	// Bigger caches leak more while idle.
	if m.IdlePerCycle(8) <= m.IdlePerCycle(2) {
		t.Error("idle energy should grow with cache size")
	}
}

func TestExecCycles(t *testing.T) {
	m := NewDefault()
	c := cache.Config{SizeKB: 2, Ways: 1, LineBytes: 64}
	base := uint64(100000)
	got := m.ExecCycles(base, c, 100)
	want := base + 100*m.MissPenaltyCycles(c)
	if got != want {
		t.Errorf("ExecCycles = %d, want %d", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	cm := cacti.NewDefault()
	if _, err := New(Params{}, cm); err == nil {
		t.Error("New(zero params) succeeded")
	}
	if _, err := New(DefaultParams(), nil); err == nil {
		t.Error("New(nil cacti) succeeded")
	}
	p := DefaultParams()
	p.StaticFraction = 0
	if _, err := New(p, cm); err == nil {
		t.Error("New(zero static fraction) succeeded")
	}
}

// Property: total energy is monotone in hits, misses and cycles.
func TestTotalMonotoneQuick(t *testing.T) {
	m := NewDefault()
	c := cache.BaseConfig
	f := func(h, ms, cy uint32) bool {
		b1 := m.Total(c, uint64(h), uint64(ms), uint64(cy))
		b2 := m.Total(c, uint64(h)+1, uint64(ms)+1, uint64(cy)+1)
		return b2.Total > b1.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for a fixed access count, shifting accesses from hits to misses
// strictly increases dynamic energy (misses are always costlier).
func TestMissesCostMoreQuick(t *testing.T) {
	m := NewDefault()
	for _, c := range cache.DesignSpace() {
		c := c
		f := func(total uint16, missFrac uint8) bool {
			n := uint64(total) + 2
			miss1 := uint64(missFrac) % (n - 1)
			miss2 := miss1 + 1
			e1 := m.DynamicEnergy(c, n-miss1, miss1)
			e2 := m.DynamicEnergy(c, n-miss2, miss2)
			return e2 > e1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
}
