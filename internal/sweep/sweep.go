// Package sweep runs grids of scheduling experiments — across offered
// load, workload scenario and system — and renders the results as CSV. It
// is the engine behind cmd/hmsweep and the load-sensitivity ablations.
//
// The grid is embarrassingly parallel and Run exploits that: every
// (utilization, scenario, system) cell simulates on its own goroutine under a
// bounded worker pool, each cell's workload derives from its own
// deterministic per-cell seed, and results land in pre-assigned slots — so
// the output is point-for-point identical for any worker count, including
// the serial Workers=1 build.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/energy"
	"hetsched/internal/scenario"
)

// Config is the sweep grid.
type Config struct {
	// Arrivals per experiment (default 1500).
	Arrivals int
	// Utilizations to sweep (default {0.5, 0.75, 0.9}).
	Utilizations []float64
	// Scenarios is the workload axis (default {uniform}, the paper's
	// stream): every cell generates its jobs from the spec's source with
	// the cell's utilization as offered load, and a spec's SLO section
	// arms the deadline-aware simulator features and the deadline/SLO
	// CSV columns. A single spec's jobs= overrides Arrivals and its rate=
	// collapses Utilizations to that value; a grid of several specs
	// rejects both.
	Scenarios []scenario.Spec
	// Systems to run at each grid point (default core.SystemNames minus
	// the ablation variant). "base" must be included for savings columns.
	Systems []string
	// Sim shapes the machine (default Figure 1 quad-core).
	Sim core.SimConfig
	// Seed drives workload generation. Each (utilization, scenario) cell
	// derives its own workload seed from it (see cellSeed), so cells are
	// statistically independent yet fully reproducible.
	Seed int64
	// Workers bounds the goroutines simulating grid cells. 0 means
	// runtime.GOMAXPROCS(0); 1 runs the grid serially. The worker count
	// never changes the output.
	Workers int
}

func (c *Config) fillDefaults() error {
	if c.Arrivals == 0 {
		c.Arrivals = 1500
	}
	if len(c.Utilizations) == 0 {
		c.Utilizations = []float64{0.5, 0.75, 0.9}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []scenario.Spec{{Source: "uniform"}}
	}
	if len(c.Systems) == 0 {
		c.Systems = []string{"base", "optimal", "energy-centric", "proposed"}
	}
	if len(c.Sim.CoreSizesKB) == 0 {
		// Field-wise defaulting: a caller setting only, say, Sim.Faults or
		// a scheduling flag must not have it clobbered by the default
		// machine.
		def := core.DefaultSimConfig()
		c.Sim.CoreSizesKB = def.CoreSizesKB
		if c.Sim.ReconfigCycles == 0 {
			c.Sim.ReconfigCycles = def.ReconfigCycles
		}
		if c.Sim.ProfilingCycles == 0 {
			c.Sim.ProfilingCycles = def.ProfilingCycles
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// A single spec's jobs= and rate= reshape the grid; across several
	// specs they would leave the cells incomparable.
	for _, sp := range c.Scenarios {
		if len(c.Scenarios) > 1 && (sp.Jobs > 0 || sp.Rate > 0) {
			return fmt.Errorf("sweep: scenario %s pins jobs= or rate=, which only a single-scenario grid accepts", sp)
		}
		if sp.Jobs > 0 {
			c.Arrivals = sp.Jobs
		}
		if sp.Rate > 0 {
			c.Utilizations = []float64{sp.Rate}
		}
	}
	return nil
}

// Point is one grid cell's outcome.
type Point struct {
	Utilization float64
	// Scenario is the cell's workload spec; its source name is the
	// arrival_model CSV column.
	Scenario scenario.Spec
	System   string
	Metrics  core.Metrics
	// SavingVsBasePct is the total-energy saving against the base system
	// at the same grid point (0 for the base row itself).
	SavingVsBasePct float64
}

// cellSeed derives the workload seed for one (utilization, scenario) cell
// from the sweep seed: a SplitMix64-style mix so neighbouring cells are
// decorrelated. Both the serial and parallel paths use it, which is what
// makes parallel output byte-identical to serial.
func cellSeed(seed int64, utilIdx, scenarioIdx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(utilIdx*31+scenarioIdx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// Run executes the grid over a pool of cfg.Workers goroutines. Within a
// grid point every system sees the identical workload.
//
// On error Run does not discard completed work: it returns every point
// whose simulation finished, in deterministic grid order, alongside the
// first error in grid order — so callers (cmd/hmsweep) can flush the rows
// they have instead of losing the whole run.
func Run(db *characterize.DB, em *energy.Model, pred core.Predictor, cfg Config) ([]Point, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if db == nil || em == nil {
		return nil, fmt.Errorf("sweep: nil DB or energy model")
	}

	// Stage 1 (serial, cheap): generate each (utilization, scenario)
	// cell's workload. Generation is O(arrivals); the simulations behind
	// it are the expensive part.
	type cell struct {
		util float64
		spec scenario.Spec
		jobs []core.Job
		err  error
	}
	cells := make([]cell, 0, len(cfg.Utilizations)*len(cfg.Scenarios))
	for ui, util := range cfg.Utilizations {
		for si, sp := range cfg.Scenarios {
			c := cell{util: util, spec: sp}
			c.jobs, c.err = sp.Generate(scenario.Params{
				DB:          db,
				Arrivals:    cfg.Arrivals,
				Cores:       len(cfg.Sim.CoreSizesKB),
				Utilization: util,
				Seed:        cellSeed(cfg.Seed, ui, si),
			})
			cells = append(cells, c)
		}
	}

	// Stage 2 (parallel): one slot per (cell, system); every simulation
	// builds its own private simulator over the shared read-only DB,
	// energy model, predictor and workload.
	nSys := len(cfg.Systems)
	metrics := make([]core.Metrics, len(cells)*nSys)
	errs := make([]error, len(cells)*nSys)
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for ci := range cells {
		for si, name := range cfg.Systems {
			wg.Add(1)
			go func(ci, si int, name string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				slot := ci*nSys + si
				if cells[ci].err != nil {
					errs[slot] = cells[ci].err
					return
				}
				metrics[slot], errs[slot] = runCell(db, em, pred, cfg, cells[ci].spec, name, cells[ci].jobs)
			}(ci, si, name)
		}
	}
	wg.Wait()

	// Stage 3 (serial): assemble points in grid order. Savings normalize
	// against the cell's base row exactly as the serial engine always
	// did: systems listed before "base" report 0.
	var points []Point
	var firstErr error
	for ci, c := range cells {
		var baseTotal float64
		cellOK := true
		for si := range cfg.Systems {
			if errs[ci*nSys+si] != nil {
				cellOK = false
				if firstErr == nil {
					firstErr = errs[ci*nSys+si]
				}
			}
		}
		if !cellOK {
			continue
		}
		for si, name := range cfg.Systems {
			m := metrics[ci*nSys+si]
			pt := Point{
				Utilization: c.util,
				Scenario:    c.spec,
				System:      name,
				Metrics:     m,
			}
			if name == "base" {
				baseTotal = m.TotalEnergy()
			}
			if baseTotal > 0 {
				pt.SavingVsBasePct = 100 * (1 - m.TotalEnergy()/baseTotal)
			}
			points = append(points, pt)
		}
	}
	return points, firstErr
}

// runCell simulates one named system over one cell's workload, with the
// simulator features the cell's scenario needs armed.
func runCell(db *characterize.DB, em *energy.Model, pred core.Predictor, cfg Config, sp scenario.Spec, name string, jobs []core.Job) (core.Metrics, error) {
	pol, needsPred, err := core.NewPolicy(name)
	if err != nil {
		return core.Metrics{}, err
	}
	var p core.Predictor
	if needsPred {
		if pred == nil {
			return core.Metrics{}, fmt.Errorf("sweep: system %q needs a predictor", name)
		}
		p = pred
	}
	sc := cfg.Sim
	sp.ApplySim(&sc)
	sc.CoreSizesKB = core.CoreSizesFor(name, cfg.Sim.CoreSizesKB)
	sim, err := core.NewSimulator(db, em, pol, p, sc)
	if err != nil {
		return core.Metrics{}, err
	}
	return sim.Run(jobs)
}

// WriteCSV renders the points with a header row; the arrival_model column
// carries each point's scenario source name. A fault-free, SLO-free sweep
// emits the legacy columns byte-for-byte; if any point ran under an
// enabled fault plan, five degradation columns are appended, and if any
// point's scenario has an SLO section, five deadline/SLO columns follow.
func WriteCSV(w io.Writer, points []Point) error {
	faulted, sloed := false, false
	for _, p := range points {
		if p.Metrics.FaultInjected {
			faulted = true
		}
		if p.Scenario.SLO.Enabled {
			sloed = true
		}
	}
	header := "utilization,arrival_model,system,total_nj,idle_nj,dynamic_nj," +
		"turnaround_cycles,p50_cycles,p99_cycles,stalls,nonbest,saving_vs_base_pct"
	if faulted {
		header += ",fault_events,redispatched,downtime_cycles,mttr_cycles,fault_nj"
	}
	if sloed {
		header += ",deadlines,deadline_misses,miss_rate_pct,slo_migrations,p999_cycles"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range points {
		m := p.Metrics
		row := fmt.Sprintf("%.2f,%s,%s,%.0f,%.0f,%.0f,%d,%d,%d,%d,%d,%.2f",
			p.Utilization, p.Scenario.Source, p.System,
			m.TotalEnergy(), m.IdleEnergy, m.DynamicEnergy,
			m.TurnaroundCycles,
			m.TurnaroundPercentile(50), m.TurnaroundPercentile(99),
			m.StallDecisions, m.NonBestPlacements, p.SavingVsBasePct)
		if faulted {
			row += fmt.Sprintf(",%d,%d,%d,%d,%.0f",
				m.FaultEvents, m.JobsRedispatched, m.CoreDowntimeCycles, m.MTTRCycles, m.FaultEnergyNJ)
		}
		if sloed {
			row += fmt.Sprintf(",%d,%d,%.2f,%d,%d",
				m.DeadlinesTotal, m.DeadlineMisses, 100*m.MissRate(),
				m.SLOMigrations, m.TurnaroundPercentile(99.9))
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
