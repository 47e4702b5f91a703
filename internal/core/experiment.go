package core

import (
	"context"
	"fmt"
	"math"

	"hetsched/internal/characterize"
	"hetsched/internal/energy"
	"hetsched/internal/stats"
)

// OraclePredictor predicts by looking the application up in the ground-truth
// characterization DB (features are unique per record in this deterministic
// simulator). It bounds what any learned predictor can achieve and powers
// the ablation benches.
type OraclePredictor struct {
	DB *characterize.DB
}

// PredictSizeKB implements Predictor. An exact feature match resolves
// directly (the fault-free path, bit-identical to before). Without one —
// injected counter noise perturbs profiles — the nearest record under
// relative squared distance answers, so the oracle degrades like real
// profiling hardware instead of erroring.
func (o OraclePredictor) PredictSizeKB(f stats.Features) (int, error) {
	for i := range o.DB.Records {
		if o.DB.Records[i].Features == f {
			return o.DB.Records[i].BestSizeKB(), nil
		}
	}
	best, bestD := -1, 0.0
	for i := range o.DB.Records {
		g := o.DB.Records[i].Features
		d := 0.0
		for k := range f {
			r := (f[k] - g[k]) / (math.Abs(f[k]) + math.Abs(g[k]) + 1)
			d += r * r
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: oracle has no records")
	}
	return o.DB.Records[best].BestSizeKB(), nil
}

// ExperimentConfig shapes a four-system comparison run.
type ExperimentConfig struct {
	// Arrivals is the workload length (paper: 5000).
	Arrivals int
	// Utilization targets the offered load on the quad-core machine
	// (default 0.90 — near saturation, the regime in which the paper's stall
	// decisions and exploration penalties are visible).
	Utilization float64
	// Seed drives workload generation.
	Seed int64
	// Sim shapes the machine (defaults to the Figure 1 quad-core).
	Sim SimConfig
}

// DefaultExperimentConfig returns the paper's setup: 5000 uniform arrivals
// on the Figure 1 machine.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Arrivals:    5000,
		Utilization: 0.90,
		Seed:        1,
		Sim:         DefaultSimConfig(),
	}
}

// ExperimentResult holds the four systems' metrics over one workload.
type ExperimentResult struct {
	Base          Metrics
	Optimal       Metrics
	EnergyCentric Metrics
	Proposed      Metrics
}

// Systems returns the four metrics in presentation order.
func (r *ExperimentResult) Systems() []Metrics {
	return []Metrics{r.Base, r.Optimal, r.EnergyCentric, r.Proposed}
}

// RunExperimentContext executes all four systems of Section V on an
// identical workload: base (all cores fixed at 8KB_4W_64B), optimal
// (exhaustive search, never stalls), energy-centric (ANN, always stalls for
// the best core) and proposed (ANN + energy-advantageous decision). The
// context is checked between systems and at every job-dispatch boundary
// within a simulation. All four systems share one fault plan (and so, the plan
// being state-independent, one fault timeline).
func RunExperimentContext(ctx context.Context, db *characterize.DB, em *energy.Model, pred Predictor, cfg ExperimentConfig) (*ExperimentResult, error) {
	if cfg.Arrivals == 0 {
		cfg.Arrivals = 5000
	}
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.90
	}
	if len(cfg.Sim.CoreSizesKB) == 0 {
		// Field-wise defaulting: a caller setting only, say, Sim.Faults
		// must not have the plan clobbered by the default machine.
		def := DefaultSimConfig()
		cfg.Sim.CoreSizesKB = def.CoreSizesKB
		if cfg.Sim.ReconfigCycles == 0 {
			cfg.Sim.ReconfigCycles = def.ReconfigCycles
		}
		if cfg.Sim.ProfilingCycles == 0 {
			cfg.Sim.ProfilingCycles = def.ProfilingCycles
		}
	}
	if pred == nil {
		return nil, fmt.Errorf("core: experiment requires a predictor")
	}
	appIDs := AllAppIDs(db)
	horizon, err := HorizonForUtilization(db, appIDs, cfg.Arrivals, len(cfg.Sim.CoreSizesKB), cfg.Utilization)
	if err != nil {
		return nil, err
	}
	jobs, err := GenerateWorkload(WorkloadConfig{
		Arrivals:      cfg.Arrivals,
		AppIDs:        appIDs,
		HorizonCycles: horizon,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	res := &ExperimentResult{}
	run := func(pol Policy, p Predictor, sizes []int) (Metrics, error) {
		sc := cfg.Sim
		sc.CoreSizesKB = sizes
		sim, err := NewSimulator(db, em, pol, p, sc)
		if err != nil {
			return Metrics{}, err
		}
		return sim.RunContext(ctx, jobs)
	}

	if res.Base, err = run(BasePolicy{}, nil, BaseCoreSizes(len(cfg.Sim.CoreSizesKB))); err != nil {
		return nil, err
	}
	if res.Optimal, err = run(OptimalPolicy{}, nil, cfg.Sim.CoreSizesKB); err != nil {
		return nil, err
	}
	if res.EnergyCentric, err = run(EnergyCentricPolicy{}, pred, cfg.Sim.CoreSizesKB); err != nil {
		return nil, err
	}
	if res.Proposed, err = run(ProposedPolicy{}, pred, cfg.Sim.CoreSizesKB); err != nil {
		return nil, err
	}
	return res, nil
}

// NormRow is one system's energies normalized to a reference system, the
// shape Figures 6 and 7 report.
type NormRow struct {
	System  string
	Cycles  float64 // total job turnaround cycles, ratio
	Idle    float64
	Dynamic float64
	Total   float64
}

func normalize(m, ref Metrics) NormRow {
	row := NormRow{System: m.System}
	if ref.TurnaroundCycles > 0 {
		row.Cycles = float64(m.TurnaroundCycles) / float64(ref.TurnaroundCycles)
	}
	if ref.IdleEnergy > 0 {
		row.Idle = m.IdleEnergy / ref.IdleEnergy
	}
	if ref.DynamicEnergy > 0 {
		row.Dynamic = m.DynamicEnergy / ref.DynamicEnergy
	}
	if t := ref.TotalEnergy(); t > 0 {
		row.Total = m.TotalEnergy() / t
	}
	return row
}

// Figure6 returns idle/dynamic/total energy of the optimal, energy-centric
// and proposed systems normalized to the base system.
func (r *ExperimentResult) Figure6() []NormRow {
	return []NormRow{
		normalize(r.Optimal, r.Base),
		normalize(r.EnergyCentric, r.Base),
		normalize(r.Proposed, r.Base),
	}
}

// Figure7 returns cycles and energies of the energy-centric and proposed
// systems normalized to the optimal system.
func (r *ExperimentResult) Figure7() []NormRow {
	return []NormRow{
		normalize(r.EnergyCentric, r.Optimal),
		normalize(r.Proposed, r.Optimal),
	}
}

// ProfilingOverheadFraction returns profiling energy as a fraction of a
// system's total energy (paper: < 0.5 %).
func ProfilingOverheadFraction(m Metrics) float64 {
	if t := m.TotalEnergy(); t > 0 {
		return m.ProfilingEnergy / t
	}
	return 0
}
