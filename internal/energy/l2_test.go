package energy

import (
	"math"
	"testing"

	"hetsched/internal/cache"
)

func TestNewL2Validation(t *testing.T) {
	if _, err := NewL2(nil, DefaultL2Params()); err == nil {
		t.Error("nil base model accepted")
	}
	p := DefaultL2Params()
	p.LatencyCycles = 40 // == memory latency: nonsense
	if _, err := NewL2(NewDefault(), p); err == nil {
		t.Error("L2 as slow as memory accepted")
	}
	p.LatencyCycles = -1
	if _, err := NewL2(NewDefault(), p); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestL2DefaultsDerived(t *testing.T) {
	m := NewL2Default()
	p := m.L2Params()
	if p.LatencyCycles != 8 || p.StaticFactor != 0.25 {
		t.Errorf("defaults %+v", p)
	}
	if p.Config != cache.DefaultL2 {
		t.Errorf("L2 geometry %+v", p.Config)
	}
	if p.HitNJ <= 0 {
		t.Error("L2 hit energy not derived")
	}
	// The 32KB L2 read must cost more than the 8KB L1 read.
	if p.HitNJ <= m.Cacti().HitEnergy(cache.BaseConfig) {
		t.Errorf("L2 hit (%v) should exceed L1 hit (%v)", p.HitNJ, m.Cacti().HitEnergy(cache.BaseConfig))
	}
}

func TestExecCyclesL2BetweenBounds(t *testing.T) {
	m := NewL2Default()
	c := cache.BaseConfig
	base := uint64(100_000)
	misses := uint64(1_000)

	allL2 := m.ExecCyclesL2(base, c, misses, 0)
	allMem := m.ExecCyclesL2(base, c, 0, misses)
	l1Only := m.ExecCycles(base, c, misses)
	if allL2 >= allMem {
		t.Errorf("all-L2 (%d) should be faster than all-memory (%d)", allL2, allMem)
	}
	if allMem != l1Only {
		t.Errorf("all-off-chip L2 path (%d) must equal the L1-only model (%d)", allMem, l1Only)
	}
}

func TestL2ServiceEnergiesOrdered(t *testing.T) {
	m := NewL2Default()
	for _, c := range cache.DesignSpace() {
		hit := m.Cacti().HitEnergy(c)
		l2 := m.L2HitServiceEnergy(c)
		mem := m.OffChipServiceEnergy(c)
		if !(hit < l2 && l2 < mem) {
			t.Errorf("%s: energy ordering broken: L1 %v, L2 %v, mem %v", c, hit, l2, mem)
		}
	}
}

func TestDynamicEnergyL2ReducesToL1Model(t *testing.T) {
	m := NewL2Default()
	c := cache.Config{SizeKB: 4, Ways: 2, LineBytes: 32}
	// With every miss going off-chip, the L2 model exceeds the L1-only
	// model exactly by the L2 fill energy per miss.
	l1Hits, misses := uint64(9_000), uint64(1_000)
	withL2 := m.DynamicEnergyL2(c, l1Hits, 0, misses)
	l1Only := m.DynamicEnergy(c, l1Hits, misses)
	wantDiff := float64(misses) * m.L2Params().HitNJ
	if math.Abs(withL2-l1Only-wantDiff) > 1e-6 {
		t.Errorf("L2 model off-chip path inconsistent: diff %v, want %v", withL2-l1Only, wantDiff)
	}
}

func TestTotalL2Decomposition(t *testing.T) {
	m := NewL2Default()
	c := cache.BaseConfig
	b := m.TotalL2(c, 10_000, 700, 300, 80_000)
	if b.L2Static <= 0 {
		t.Error("no L2 static energy")
	}
	if math.Abs(b.Total-(b.Static+b.Dynamic+b.Core)) > 1e-9 {
		t.Errorf("breakdown does not sum: %+v", b)
	}
	// Static must include the L2 share.
	l1Static := m.StaticEnergy(c.SizeKB, 80_000)
	if math.Abs(b.Static-(l1Static+b.L2Static)) > 1e-9 {
		t.Errorf("static %v != L1 %v + L2 %v", b.Static, l1Static, b.L2Static)
	}
}

func TestL2SoftensMissPenalty(t *testing.T) {
	// The point of the extension: with a warm L2, small L1s get cheaper
	// relative to the L1-only model, since their misses no longer pay the
	// full off-chip cost.
	m := NewL2Default()
	small := cache.Config{SizeKB: 2, Ways: 1, LineBytes: 16}
	hits, misses := uint64(50_000), uint64(10_000)
	cyclesL1 := m.ExecCycles(100_000, small, misses)
	totalL1 := m.Total(small, hits, misses, cyclesL1)
	// Same behaviour, but 90% of misses served by the L2.
	l2Hits := misses * 9 / 10
	off := misses - l2Hits
	cyclesL2 := m.ExecCyclesL2(100_000, small, l2Hits, off)
	totalL2 := m.TotalL2(small, hits, l2Hits, off, cyclesL2)
	if totalL2.Dynamic >= totalL1.Dynamic {
		t.Errorf("L2 did not reduce dynamic energy: %v vs %v", totalL2.Dynamic, totalL1.Dynamic)
	}
	if cyclesL2 >= cyclesL1 {
		t.Errorf("L2 did not reduce cycles: %d vs %d", cyclesL2, cyclesL1)
	}
}
