package energy

import (
	"fmt"

	"hetsched/internal/cache"
)

// L2 extension (the paper's Section VIII future work: "additional levels of
// private and shared caches"). The baseline Figure 4 model treats every L1
// miss as an off-chip access, matching the paper's energy model, which it
// inherited from single-level prior work [1]. With the L2 extension an L1
// miss that hits the private L2 costs only the L2 latency and access
// energy; only L2 misses go off-chip.

// L2Params extends the model for a two-level hierarchy.
type L2Params struct {
	// LatencyCycles is the L1-miss/L2-hit service time (default 8).
	LatencyCycles int
	// HitNJ is the L2 read energy per access. Zero derives it from the
	// CACTI model applied to the L2 geometry.
	HitNJ float64
	// StaticFactor scales the 10 %-rule per-KB static rate for the L2
	// array (denser, lower-leakage SRAM than the tightly-timed L1;
	// default 0.25).
	StaticFactor float64
	// Config is the L2 geometry (default cache.DefaultL2).
	Config cache.L2Config
}

// DefaultL2Params returns the calibrated L2 extension constants.
func DefaultL2Params() L2Params {
	return L2Params{
		LatencyCycles: 8,
		StaticFactor:  0.25,
		Config:        cache.DefaultL2,
	}
}

func (p *L2Params) fillDefaults(m *Model) {
	if p.LatencyCycles == 0 {
		p.LatencyCycles = 8
	}
	if p.StaticFactor == 0 {
		p.StaticFactor = 0.25
	}
	if p.Config == (cache.L2Config{}) {
		p.Config = cache.DefaultL2
	}
	if p.HitNJ == 0 {
		p.HitNJ = m.cm.HitEnergy(cache.Config{
			SizeKB:    p.Config.SizeKB,
			Ways:      p.Config.Ways,
			LineBytes: p.Config.LineBytes,
		})
	}
}

// L2Breakdown extends Breakdown with the L2's static share.
type L2Breakdown struct {
	Breakdown
	// L2Static is the L2 array's static energy over the window (already
	// included in Total).
	L2Static float64
}

// L2Model evaluates the two-level variant of Figure 4.
type L2Model struct {
	*Model
	l2 L2Params
}

// NewL2 wraps a base model with L2 awareness.
func NewL2(m *Model, p L2Params) (*L2Model, error) {
	if m == nil {
		return nil, fmt.Errorf("energy: nil base model")
	}
	p.fillDefaults(m)
	if p.LatencyCycles < 1 || p.LatencyCycles >= m.p.MissLatencyCycles {
		return nil, fmt.Errorf("energy: L2 latency %d must sit between L1 (1) and memory (%d)",
			p.LatencyCycles, m.p.MissLatencyCycles)
	}
	return &L2Model{Model: m, l2: p}, nil
}

// L2Params returns the extension constants.
func (m *L2Model) L2Params() L2Params { return m.l2 }

// ExecCyclesL2 converts base cycles plus per-level miss counts into total
// execution cycles: L2 hits cost the L2 latency; off-chip misses cost the
// full Figure 4 penalty.
func (m *L2Model) ExecCyclesL2(baseCycles uint64, c cache.Config, l2Hits, offChip uint64) uint64 {
	return baseCycles +
		l2Hits*uint64(m.l2.LatencyCycles) +
		offChip*m.MissPenaltyCycles(c)
}

// L2HitServiceEnergy is the energy of servicing one L1 miss from the L2:
// the stall over the L2 latency, the L2 read, and the L1 line fill.
func (m *L2Model) L2HitServiceEnergy(c cache.Config) float64 {
	return float64(m.l2.LatencyCycles)*m.p.StallNJPerCycle +
		m.l2.HitNJ +
		m.cm.FillEnergy(c)
}

// OffChipServiceEnergy is the energy of one L2 miss: the Figure 4 miss
// energy plus the L2 fill (approximated by its hit energy).
func (m *L2Model) OffChipServiceEnergy(c cache.Config) float64 {
	return m.MissEnergy(c) + m.l2.HitNJ
}

// DynamicEnergyL2 splits L1 misses into L2 hits and off-chip accesses.
func (m *L2Model) DynamicEnergyL2(c cache.Config, l1Hits, l2Hits, offChip uint64) float64 {
	return float64(l1Hits)*m.cm.HitEnergy(c) +
		float64(l2Hits)*m.L2HitServiceEnergy(c) +
		float64(offChip)*m.OffChipServiceEnergy(c)
}

// L2StaticPerCycle is the L2 array's static rate under the scaled 10 % rule.
func (m *L2Model) L2StaticPerCycle() float64 {
	return m.ePerKB * m.l2.StaticFactor * float64(m.l2.Config.SizeKB)
}

// TotalL2 evaluates the full two-level breakdown over an execution window.
func (m *L2Model) TotalL2(c cache.Config, l1Hits, l2Hits, offChip, totalCycles uint64) L2Breakdown {
	b := L2Breakdown{
		Breakdown: Breakdown{
			Static:  m.StaticEnergy(c.SizeKB, totalCycles),
			Dynamic: m.DynamicEnergyL2(c, l1Hits, l2Hits, offChip),
			Core:    float64(totalCycles) * m.p.CoreActiveNJPerCycle,
		},
		L2Static: m.L2StaticPerCycle() * float64(totalCycles),
	}
	b.Static += b.L2Static
	b.Total = b.Breakdown.Static + b.Dynamic + b.Core
	return b
}
