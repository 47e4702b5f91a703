package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"hetsched/internal/cache"
	"hetsched/internal/characterize"
	"hetsched/internal/energy"
	"hetsched/internal/fault"
	"hetsched/internal/profile"
	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// Predictor is the best-cache-size predictor interface the scheduler
// consumes; satisfied by ann.SizePredictor and by the test oracles. One
// without a feedback hook must be a pure function of its features (see
// the purity contract in predictorapi.go).
type Predictor interface {
	PredictSizeKB(f stats.Features) (int, error)
}

// SimConfig shapes the simulated machine.
type SimConfig struct {
	// CoreSizesKB fixes each core's cache size (Figure 1: {2, 4, 8, 8}).
	CoreSizesKB []int
	// ReconfigCycles is charged when a core switches L1 configuration
	// (flush + tuner latency).
	ReconfigCycles uint64
	// ProfilingCycles is the extra latency of a profiling run (counter
	// collection + ANN inference) on top of the base-config execution.
	ProfilingCycles uint64
	// SingleProfilingCore restricts profiling to the primary profiling
	// core (Core 4), disabling the secondary Core 3 path (ablation;
	// Section III allows both).
	SingleProfilingCore bool
	// PriorityScheduling orders the ready queue by job priority (highest
	// first, FIFO within a priority) instead of pure FIFO. Part of the
	// paper's future-work extension (Section VIII).
	PriorityScheduling bool
	// Preemptive lets an arriving higher-priority job preempt a running
	// lower-priority job on one of its eligible cores when no idle core is
	// available (future-work extension). Requires a policy implementing
	// PreemptionAdvisor; other policies simply never preempt.
	Preemptive bool
	// SLOAware arms the deadline-aware variant of the Section IV.E
	// stall-vs-migrate decision (scenario extension, DESIGN.md §16): a
	// deadline-carrying job stalls for its best core only when the
	// projected wait still meets the deadline; otherwise it migrates to
	// the cheapest idle candidate that does, counted as an SLO-forced
	// migration with its energy penalty in Metrics. Off (the paper's
	// energy-only rule) by default; jobs without deadlines are unaffected.
	SLOAware bool
	// MemContentionFactor models shared memory-bus pressure (extension):
	// a job's miss-stall cycles stretch by
	// 1 + factor·(otherBusyCores/(cores-1)) at the moment it starts.
	// Zero (the paper's setting) gives every job exclusive bus bandwidth.
	// The stretch also scales the execution's static and core energy,
	// which grow with occupancy; dynamic (per-access) energy is unchanged.
	MemContentionFactor float64
	// RecordSchedule captures every execution as a PlacementEvent in
	// Metrics.Schedule (timeline analysis and debugging; off by default to
	// keep long runs lean).
	RecordSchedule bool
	// CoreFreqs gives each core a relative clock frequency in (0, 1.5]
	// (nil or 1.0 = the paper's uniform nominal clock). This is the
	// intro's "voltage, frequency" configurability axis under a simple
	// V∝f scaling model: an execution on a core at frequency f occupies
	// the core for cycles/f wall time; its non-cache core energy scales by
	// f² (voltage squared, same executed cycles) and its cache static
	// energy by 1/f (leakage integrates over wall time). Per-access
	// dynamic energy is unchanged.
	CoreFreqs []float64
	// Faults is the seeded fault-injection plan (resilience extension).
	// The zero value is disabled and leaves every output bit-identical to
	// a fault-free simulation; see internal/fault.
	Faults fault.Plan
	// Trace attaches a decision-audit recorder (internal/trace): the
	// simulator emits one cycle-stamped event per lifecycle transition and
	// per scheduling decision — enqueue, dispatch, profiling window, ANN
	// prediction (features + ensemble votes), Figure 5 tuning steps,
	// energy-advantageous stall decisions, fault kills/re-queues, and
	// completion. Nil (the default) disables recording entirely: every
	// emission site is nil-guarded, so the metrics are bit-identical and
	// the hot path allocates nothing. The recorder rides the
	// single-threaded event loop and must not be shared across concurrent
	// simulations.
	Trace *trace.Recorder
}

// DefaultSimConfig returns the paper's quad-core machine.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		CoreSizesKB:     append([]int(nil), cache.CoreSizesKB...),
		ReconfigCycles:  200,
		ProfilingCycles: 2000,
	}
}

// SimCore is one core's simulation state.
type SimCore struct {
	ID     int
	SizeKB int
	// Config is the currently loaded L1 configuration.
	Config cache.Config

	busyUntil  uint64
	busyCycles uint64
	job        *Job         // job currently executing (nil if idle)
	jobCfg     cache.Config // configuration the current job runs in
	profiling  bool         // current execution is a profiling run
	sloForced  bool         // current execution was an SLO-forced migration

	// Preemption bookkeeping: when the execution started, its total
	// length, and the energy charged at start (refunded pro rata if the
	// job is preempted).
	startedAt     uint64
	execCycles    uint64
	chargedDyn    float64
	chargedStatic float64
	chargedCore   float64

	// Resilience state, driven by SimConfig.Faults (see resilience.go).
	failed    bool   // transient outage in progress
	dead      bool   // permanently lost
	stuck     bool   // reconfiguration hardware jammed at Config
	downSince uint64 // when the current transient outage began
	deadAt    uint64 // when the core was lost for good
}

// Idle reports whether the core is free at time now. A crashed or
// permanently dead core is never idle — it is unavailable.
func (c *SimCore) Idle(now uint64) bool { return c.job == nil && !c.failed && !c.dead }

// Failed reports an in-progress transient outage.
func (c *SimCore) Failed() bool { return c.failed }

// Dead reports permanent loss.
func (c *SimCore) Dead() bool { return c.dead }

// Stuck reports jammed reconfiguration hardware: the core still executes,
// but only in its currently loaded configuration.
func (c *SimCore) Stuck() bool { return c.stuck }

// BusyUntil returns the completion time of the current execution.
func (c *SimCore) BusyUntil() uint64 { return c.busyUntil }

// Job returns the currently executing job (nil when idle).
func (c *SimCore) Job() *Job { return c.job }

// Decision is a policy's verdict for one queued job.
type Decision struct {
	// Place schedules the job now; false leaves it in the ready queue.
	Place bool
	// CoreID and Config select where and how to execute when Place is set.
	CoreID int
	Config cache.Config
	// Profiling marks the execution as the base-config profiling run.
	Profiling bool
	// SLOForced marks a placement forced by the SLO-aware override of the
	// energy-advantageous rule (the job would otherwise have stalled past
	// its deadline); surfaces as PlacementEvent.SLOForced.
	SLOForced bool
}

// Policy is one of the four systems of Section V.
type Policy interface {
	// Name identifies the system ("base", "optimal", ...).
	Name() string
	// Decide chooses a placement for job given current state, or stalls it.
	Decide(s *Simulator, job *Job) (Decision, error)
	// OnComplete runs when a job finishes executing; policies update the
	// profiling table and tuning state here (knowledge becomes available
	// only after a run completes).
	OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error
}

// Metrics aggregates one simulation run, mirroring the quantities of
// Figures 6 and 7.
type Metrics struct {
	System string
	Jobs   int
	// Completed counts finished executions (== Jobs when the run drains).
	Completed int

	// Makespan is the total number of cycles from time 0 to the last
	// completion.
	Makespan uint64
	// TurnaroundCycles sums, over all jobs, completion minus arrival
	// (queueing plus execution). This is the reproduction's reading of the
	// paper's "performance in total number of cycles": it is the only
	// cycle metric under which the always-stalling energy-centric system
	// can outperform the never-stalling optimal system, as Figure 7
	// reports — stalling trades wait cycles for much shorter executions.
	TurnaroundCycles uint64
	// Turnarounds holds every job's individual turnaround, in completion
	// order, for tail-latency analysis (see TurnaroundPercentile).
	Turnarounds []uint64

	// Energy components in nanojoules.
	IdleEnergy      float64 // idle cores: cache static + core idle power
	DynamicEnergy   float64 // cache dynamic energy of all executions
	StaticEnergy    float64 // cache static energy while executing
	CoreEnergy      float64 // non-cache core energy while executing
	ProfilingEnergy float64 // profiling/reconfiguration overhead energy

	// Decision counters.
	ProfilingRuns     int
	TuningRuns        int // executions whose config came from the tuner
	NonBestPlacements int // executions on a core of non-predicted size
	StallDecisions    int // deliberate stalls while a usable core idled
	ResourceStalls    int // stalls because no core was idle

	// MaxQueueDepth is the deepest the ready queue ever got — the
	// congestion diagnostic behind the stall counters.
	MaxQueueDepth int

	// Real-time extension counters (future work, Section VIII).
	Preemptions    int // executions displaced by higher-priority arrivals
	DeadlinesTotal int // completed jobs that carried a deadline
	DeadlineMisses int // of those, how many finished late

	// SLO-aware scheduling counters (scenario extension). SLOMigrations
	// counts stall decisions overridden because stalling was projected to
	// miss the job's deadline; SLOEnergyPenaltyNJ is the summed extra
	// energy those forced migrations paid versus stalling — the
	// degradation metric of the SLO-aware decision rule.
	SLOMigrations      int
	SLOEnergyPenaltyNJ float64
	// ClassDeadlines / ClassDeadlineMisses break deadline accounting down
	// by scenario SLO class (nil when no completed job carried a class).
	ClassDeadlines      map[string]int
	ClassDeadlineMisses map[string]int

	// Resilience metrics, populated only when SimConfig.Faults is enabled
	// (FaultInjected). FaultEnergyNJ is the wasted energy of executions
	// killed by a crash — already contained in the Dynamic/Static/Core
	// components, reported separately as the fault-attributed overhead.
	FaultInjected      bool
	FaultEvents        int           // fault events applied during the run
	JobsRedispatched   int           // executions killed and re-queued
	CoreDowntimeCycles uint64        // summed core-unavailability, dead tails included
	Recoveries         int           // transient outages that ended in-run
	MTTRCycles         uint64        // mean cycles to repair over Recoveries
	FaultEnergyNJ      float64       // energy wasted by killed executions
	StuckReconfigs     int           // placements overridden by jammed hardware
	FallbackPlacements int           // predictions re-mapped by the fallback chain
	FaultTimeline      []fault.Event // the applied events, in order

	// Predictor is the run's predictor scorecard — prequential hit/regret
	// accounting against the oracle best size, with per-member detail for
	// ensemble predictors. Nil when the system schedules without a
	// predictor or nothing was scored.
	Predictor *PredictorStats

	// ExploredPerApp counts distinct configurations executed per app.
	ExploredPerApp map[int]int
	// PerAppEnergy accumulates each application's execution energy
	// (dynamic + static + core, net of preemption refunds), keyed by app
	// ID. Idle energy is a system property and is not attributed.
	PerAppEnergy map[int]float64
	// PerAppRuns counts completed executions per application.
	PerAppRuns map[int]int
	// Schedule is the execution timeline (populated only with
	// SimConfig.RecordSchedule).
	Schedule []PlacementEvent
}

// PlacementEvent is one execution interval on one core.
type PlacementEvent struct {
	Start, End uint64
	JobIndex   int
	AppID      int
	CoreID     int
	Config     cache.Config
	Profiling  bool
	// Preempted marks intervals cut short by a higher-priority arrival.
	Preempted bool
	// Failed marks intervals cut short by a core crash; the job was
	// re-queued with its progress lost.
	Failed bool
	// SLOForced marks executions placed by the SLO-aware override: the
	// energy rule said stall, but stalling was projected to miss the
	// job's deadline.
	SLOForced bool
}

// TotalEnergy sums every component.
func (m Metrics) TotalEnergy() float64 {
	return m.IdleEnergy + m.DynamicEnergy + m.StaticEnergy + m.CoreEnergy + m.ProfilingEnergy
}

// TurnaroundPercentile returns the p-th percentile (0 < p <= 100) of
// per-job turnaround, using nearest-rank on a sorted copy; 0 if no jobs
// completed or p is out of range.
func (m Metrics) TurnaroundPercentile(p float64) uint64 {
	if len(m.Turnarounds) == 0 || p <= 0 || p > 100 {
		return 0
	}
	sorted := append([]uint64(nil), m.Turnarounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.9999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// BusyEnergy is the non-idle portion.
func (m Metrics) BusyEnergy() float64 {
	return m.DynamicEnergy + m.StaticEnergy + m.CoreEnergy + m.ProfilingEnergy
}

// Simulator drives one system over one workload. It is single-use: build,
// Run once, read metrics.
type Simulator struct {
	DB     *characterize.DB
	EM     *energy.Model
	Policy Policy
	Pred   Predictor // nil for systems without the ANN
	Table  *profile.Table
	Cfg    SimConfig

	cores   []*SimCore
	bySize  []sizeCores // CoresOfSize's index, one entry per size present
	idleBuf []*SimCore  // IdleCores' reused result
	now     uint64
	queue   []*Job
	metrics Metrics

	// Fault injection (nil unless Cfg.Faults is enabled).
	inj           *fault.Injector
	recoveredDown uint64 // downtime of completed outages, for MTTR
	stalledKills  int    // executions killed since the last completion

	// Outcome-feedback accounting (see feedback.go): the run's prequential
	// predictor scorecard and the per-app regret memo behind it.
	predStats   PredictorStats
	regretCache map[int]map[int]float64

	// Decision-audit recorder (nil unless Cfg.Trace is set; see trace.go).
	tr *trace.Recorder

	// Rule B's per-pass memo (see stallRules): passes counts scheduling
	// passes and stalledIn[app] is the last pass in which app stalled.
	passes    uint64
	stalledIn []uint64
}

// NewSimulator validates and assembles a simulator.
func NewSimulator(db *characterize.DB, em *energy.Model, pol Policy, pred Predictor, cfg SimConfig) (*Simulator, error) {
	if db == nil || len(db.Records) == 0 {
		return nil, fmt.Errorf("core: empty characterization DB")
	}
	if em == nil {
		return nil, fmt.Errorf("core: nil energy model")
	}
	if pol == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	// Online-learning predictors carry mutable state; fork a private copy
	// so this run's learning trajectory is deterministic and independent of
	// any concurrent run sharing the original (see ForkingPredictor).
	if fp, ok := pred.(ForkingPredictor); ok {
		pred = fp.Fork()
	}
	if len(cfg.CoreSizesKB) == 0 {
		return nil, fmt.Errorf("core: no cores")
	}
	s := &Simulator{
		DB:     db,
		EM:     em,
		Policy: pol,
		Pred:   pred,
		Table:  profile.NewTable(),
		Cfg:    cfg,
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.CoreFreqs) != 0 && len(cfg.CoreFreqs) != len(cfg.CoreSizesKB) {
		return nil, fmt.Errorf("core: %d frequencies for %d cores", len(cfg.CoreFreqs), len(cfg.CoreSizesKB))
	}
	for i, f := range cfg.CoreFreqs {
		if f <= 0 || f > 1.5 {
			return nil, fmt.Errorf("core: core %d frequency %v out of (0, 1.5]", i, f)
		}
	}
	for i, size := range cfg.CoreSizesKB {
		if !designSpaceSize(size) {
			return nil, fmt.Errorf("core: core %d size %dKB not in design space", i, size)
		}
		s.cores = append(s.cores, &SimCore{
			ID:     i,
			SizeKB: size,
			Config: cache.Config{SizeKB: size, Ways: 1, LineBytes: 16},
		})
	}
	s.bySize = indexBySize(s.cores)
	s.idleBuf = make([]*SimCore, 0, len(s.cores))
	s.metrics.System = pol.Name()
	s.metrics.ExploredPerApp = map[int]int{}
	s.metrics.PerAppEnergy = map[int]float64{}
	s.metrics.PerAppRuns = map[int]int{}
	if cfg.Faults.Enabled() {
		s.inj = cfg.Faults.NewInjector(len(s.cores))
		s.metrics.FaultInjected = true
	}
	if cfg.Trace != nil {
		s.tr = cfg.Trace
		s.tr.SetSystem(pol.Name())
	}
	return s, nil
}

// Now returns the current simulation time in cycles.
func (s *Simulator) Now() uint64 { return s.now }

// Cores returns the simulated cores.
func (s *Simulator) Cores() []*SimCore { return s.cores }

// IdleCores returns the currently idle cores in ID order. The slice is a
// buffer the simulator reuses: it is valid only until the next IdleCores
// call, and callers must not modify it.
func (s *Simulator) IdleCores() []*SimCore {
	out := s.idleBuf[:0]
	for _, c := range s.cores {
		if c.Idle(s.now) {
			out = append(out, c)
		}
	}
	s.idleBuf = out
	return out
}

// anyIdle reports whether some core is idle, without building a slice.
func (s *Simulator) anyIdle() bool {
	for _, c := range s.cores {
		if c.Idle(s.now) {
			return true
		}
	}
	return false
}

// sizeCores is one cache size's cores in ID order, dead ones included.
type sizeCores struct {
	sizeKB int
	cores  []*SimCore
}

// indexBySize groups cores by cache size, sizes in order of first
// appearance; each group's capacity equals its length.
func indexBySize(cores []*SimCore) []sizeCores {
	var idx []sizeCores
	for _, c := range cores {
		i := 0
		for i < len(idx) && idx[i].sizeKB != c.SizeKB {
			i++
		}
		if i == len(idx) {
			idx = append(idx, sizeCores{sizeKB: c.SizeKB})
		}
		idx[i].cores = append(idx[i].cores, c)
	}
	for i := range idx {
		idx[i].cores = slices.Clip(idx[i].cores)
	}
	return idx
}

// CoresOfSize returns cores with the given cache size in ID order,
// permanently dead ones included. The slice is an index built once in
// NewSimulator and shared across calls: callers must not modify it.
func (s *Simulator) CoresOfSize(sizeKB int) []*SimCore {
	for _, g := range s.bySize {
		if g.sizeKB == sizeKB {
			return g.cores
		}
	}
	return nil
}

// idleProfilingCore returns the idle profiling-capable core a profiling
// run starts on, or nil. The profiling-capable cores are the 8 KB cores,
// tried primary first: Core 4 — the highest-ID one — then Core 3. With
// SingleProfilingCore set, only the primary is eligible. Permanently dead
// cores are excluded; if every base-size core is gone, profiling degrades
// to the largest surviving size (see profilingConfigFor).
func (s *Simulator) idleProfilingCore() *SimCore {
	size := cache.BaseConfig.SizeKB
	// The machine may lack base-size cores either because permanent faults
	// killed them or because the configured SystemSpec shape never had any
	// (e.g. a uniform little-core node); either way profiling degrades to
	// the largest size class that is present and alive.
	if !s.sizeAlive(size) {
		for _, cand := range cache.Sizes() { // ascending: ends at largest alive
			if s.sizeAlive(cand) {
				size = cand
			}
		}
	}
	cores := s.CoresOfSize(size)
	for i := len(cores) - 1; i >= 0; i-- {
		c := cores[i]
		if c.dead {
			continue
		}
		if c.Idle(s.now) {
			return c
		}
		if s.Cfg.SingleProfilingCore {
			break
		}
	}
	return nil
}

// Record fetches the characterization record behind a job.
func (s *Simulator) Record(job *Job) (*characterize.Record, error) {
	return s.DB.Record(job.AppID)
}

// start places job on core in cfg, charging energy and occupying the core.
func (s *Simulator) start(job *Job, core *SimCore, cfg cache.Config, profiling bool) error {
	if core.job != nil {
		return fmt.Errorf("core: core %d is busy", core.ID)
	}
	if core.failed || core.dead {
		return fmt.Errorf("core: scheduling on unavailable core %d", core.ID)
	}
	overridden := false
	if core.stuck && cfg != core.Config {
		// Jammed reconfiguration hardware: the core can only execute what
		// it currently holds, so the requested configuration is overridden
		// and no reconfiguration is charged (none happens).
		cfg = core.Config
		s.metrics.StuckReconfigs++
		overridden = true
	}
	rec, err := s.Record(job)
	if err != nil {
		return err
	}
	cr, err := rec.Result(cfg)
	if err != nil {
		return err
	}
	// A preempted job resumes with only its unexecuted share of work and
	// energy (pro-rata model; the cold-cache restart cost is approximated
	// by the reconfiguration charge below).
	frac := job.remaining()
	execCycles := cr.Cycles
	stretch := 1.0
	if s.Cfg.MemContentionFactor > 0 && len(s.cores) > 1 {
		// Bus contention stretches the miss-stall share of the execution
		// by the current occupancy of the other cores.
		busy := 0
		for _, c := range s.cores {
			if c != core && c.job != nil {
				busy++
			}
		}
		pressure := float64(busy) / float64(len(s.cores)-1)
		stretch = 1 + s.Cfg.MemContentionFactor*pressure
		stallCycles := float64(0)
		if cr.Cycles > rec.BaseCycles {
			stallCycles = float64(cr.Cycles - rec.BaseCycles)
		}
		execCycles = rec.BaseCycles + uint64(stallCycles*stretch)
	}
	// DVFS: a core at relative frequency f takes 1/f wall time per
	// executed cycle. The simulator's timebase is nominal cycles.
	freq := 1.0
	if len(s.Cfg.CoreFreqs) > 0 {
		freq = s.Cfg.CoreFreqs[core.ID]
	}
	cycles := uint64(float64(execCycles) * frac / freq)
	if cycles == 0 {
		cycles = 1
	}
	var overheadE float64
	if cfg != core.Config {
		cycles += s.Cfg.ReconfigCycles
		overheadE += float64(s.Cfg.ReconfigCycles) * s.EM.Params().CoreActiveNJPerCycle
	}
	if profiling {
		cycles += s.Cfg.ProfilingCycles
		overheadE += float64(s.Cfg.ProfilingCycles) * s.EM.Params().CoreActiveNJPerCycle
		s.metrics.ProfilingRuns++
	}
	core.Config = cfg
	core.job = job
	core.jobCfg = cfg
	core.profiling = profiling
	core.sloForced = false
	core.startedAt = s.now
	core.execCycles = cycles
	core.busyUntil = s.now + cycles
	core.busyCycles += cycles
	// Static energy tracks wall-clock occupancy (contention stretch and
	// 1/f dilation); core energy tracks executed cycles at V² ∝ f²;
	// dynamic energy is per access and scales with neither.
	timeScale := 1.0
	if cr.Cycles > 0 {
		timeScale = float64(execCycles) / float64(cr.Cycles)
	}
	core.chargedDyn = cr.Energy.Dynamic * frac
	core.chargedStatic = cr.Energy.Static * frac * timeScale / freq
	core.chargedCore = cr.Energy.Core * frac * timeScale * freq * freq

	s.metrics.DynamicEnergy += core.chargedDyn
	s.metrics.StaticEnergy += core.chargedStatic
	s.metrics.CoreEnergy += core.chargedCore
	s.metrics.ProfilingEnergy += overheadE
	s.metrics.PerAppEnergy[job.AppID] += core.chargedDyn + core.chargedStatic + core.chargedCore
	s.traceDispatch(job, core, cfg, profiling, overridden,
		core.chargedDyn+core.chargedStatic+core.chargedCore)
	return nil
}

// preempt stops the execution on core at the current time, refunds the
// unexecuted share of its energy and cycles, and returns the displaced job
// (with its remaining fraction reduced) for re-queueing.
func (s *Simulator) preempt(core *SimCore) (*Job, error) {
	if core.job == nil {
		return nil, fmt.Errorf("core: preempting idle core %d", core.ID)
	}
	if core.profiling {
		return nil, fmt.Errorf("core: profiling runs are not preemptible")
	}
	job := core.job
	elapsed := s.now - core.startedAt
	if elapsed > core.execCycles {
		elapsed = core.execCycles
	}
	doneFrac := float64(elapsed) / float64(core.execCycles)
	undone := 1 - doneFrac

	// Refund the unexecuted share.
	s.metrics.DynamicEnergy -= core.chargedDyn * undone
	s.metrics.StaticEnergy -= core.chargedStatic * undone
	s.metrics.CoreEnergy -= core.chargedCore * undone
	s.metrics.PerAppEnergy[job.AppID] -= (core.chargedDyn + core.chargedStatic + core.chargedCore) * undone
	core.busyCycles -= core.execCycles - elapsed

	job.remainingFrac = job.remaining() * undone
	if s.Cfg.RecordSchedule {
		s.metrics.Schedule = append(s.metrics.Schedule, PlacementEvent{
			Start: core.startedAt, End: s.now,
			JobIndex: job.Index, AppID: job.AppID, CoreID: core.ID,
			Config: core.jobCfg, Preempted: true, SLOForced: core.sloForced,
		})
	}
	core.sloForced = false
	core.job = nil
	core.busyUntil = s.now
	s.metrics.Preemptions++
	return job, nil
}

// completeDue finishes every execution with busyUntil <= now.
func (s *Simulator) completeDue() error {
	for _, c := range s.cores {
		if c.job != nil && c.busyUntil <= s.now {
			job, cfg, profiled := c.job, c.jobCfg, c.profiling
			sloForced := c.sloForced
			c.job = nil
			c.profiling = false
			c.sloForced = false
			if s.Cfg.RecordSchedule {
				s.metrics.Schedule = append(s.metrics.Schedule, PlacementEvent{
					Start: c.startedAt, End: c.busyUntil,
					JobIndex: job.Index, AppID: job.AppID, CoreID: c.ID,
					Config: cfg, Profiling: profiled, SLOForced: sloForced,
				})
			}
			s.traceComplete(job, c, cfg, profiled)
			s.metrics.TurnaroundCycles += c.busyUntil - job.ArrivalCycle
			s.metrics.Turnarounds = append(s.metrics.Turnarounds, c.busyUntil-job.ArrivalCycle)
			s.metrics.Completed++
			s.stalledKills = 0
			s.metrics.PerAppRuns[job.AppID]++
			if job.Deadlined() {
				s.metrics.DeadlinesTotal++
				missed := c.busyUntil > job.DeadlineCycle
				if missed {
					s.metrics.DeadlineMisses++
				}
				if job.Class != "" {
					if s.metrics.ClassDeadlines == nil {
						s.metrics.ClassDeadlines = map[string]int{}
						s.metrics.ClassDeadlineMisses = map[string]int{}
					}
					s.metrics.ClassDeadlines[job.Class]++
					if missed {
						s.metrics.ClassDeadlineMisses[job.Class]++
					}
				}
			}
			if err := s.Policy.OnComplete(s, job, c, cfg, profiled); err != nil {
				return err
			}
		}
	}
	return nil
}

// stallRules are the guarantees a built-in policy gives about its stalls.
// Each lets schedulePass skip Decide calls whose answer cannot change
// within one pass; the skipped jobs are counted exactly as a call would
// have counted them.
type stallRules uint8

const (
	// stallWhenBusy (Rule A): with no idle core, Decide stalls every job
	// without side effects or trace events. Only a placement changes
	// idleness within a pass, so once the pass sees no idle core the rest
	// of the queue stalls as resource stalls.
	stallWhenBusy stallRules = 1 << iota
	// stallPerApp (Rule B): Decide depends on the job's AppID and the
	// machine alone, and a stall stays a stall while cores only fill up.
	// Once an app stalls in a pass, its later jobs in that pass stall too.
	stallPerApp
)

// stallSkipper is the unexported opt-in of the built-in policies. Other
// policies, and every Preemptive run, take the full rescan.
type stallSkipper interface{ stallRules() stallRules }

// schedulePass scans the ready queue, placing every job the policy accepts.
// The scan order is FIFO (the paper) or priority-then-FIFO when
// PriorityScheduling is set. Jobs that stall stay in the queue in order
// (the paper's "enqueued back into the ready queue"). With Preemptive set,
// a still-stalled job may displace a running strictly-lower-priority job on
// one of its eligible cores.
func (s *Simulator) schedulePass() error {
	if len(s.queue) > s.metrics.MaxQueueDepth {
		s.metrics.MaxQueueDepth = len(s.queue)
	}
	if s.Cfg.PriorityScheduling {
		sortByPriority(s.queue)
	}
	var rules stallRules
	if sk, ok := s.Policy.(stallSkipper); ok && !s.Cfg.Preemptive {
		rules = sk.stallRules()
	}
	if rules&stallPerApp != 0 {
		s.passes++
		if len(s.stalledIn) < len(s.DB.Records) {
			s.stalledIn = make([]uint64, len(s.DB.Records))
		}
	}
	idle := s.anyIdle()
	remaining := s.queue[:0]
	for i, job := range s.queue {
		if !idle && rules&stallWhenBusy != 0 {
			rest := s.queue[i:]
			s.metrics.ResourceStalls += len(rest)
			remaining = append(remaining, rest...)
			break
		}
		perApp := rules&stallPerApp != 0 && job.AppID >= 0 && job.AppID < len(s.stalledIn)
		if perApp && s.stalledIn[job.AppID] == s.passes {
			s.countStall(idle)
			remaining = append(remaining, job)
			continue
		}
		d, err := s.Policy.Decide(s, job)
		if err != nil {
			return fmt.Errorf("core: %s deciding job %d (app %d): %v", s.Policy.Name(), job.Index, job.AppID, err)
		}
		if !d.Place && s.Cfg.Preemptive {
			placed, err := s.tryPreempt(job, &remaining)
			if err != nil {
				return err
			}
			if placed {
				idle = s.anyIdle()
				continue
			}
		}
		if !d.Place {
			s.countStall(idle)
			if perApp {
				s.stalledIn[job.AppID] = s.passes
			}
			remaining = append(remaining, job)
			continue
		}
		if d.CoreID < 0 || d.CoreID >= len(s.cores) {
			return fmt.Errorf("core: %s placed job on core %d", s.Policy.Name(), d.CoreID)
		}
		if err := s.start(job, s.cores[d.CoreID], d.Config, d.Profiling); err != nil {
			return err
		}
		if d.SLOForced {
			s.cores[d.CoreID].sloForced = true
		}
		idle = s.anyIdle()
	}
	s.queue = remaining
	return nil
}

// countStall counts one stalled job: a deliberate stall while some core
// idles, a resource stall otherwise.
func (s *Simulator) countStall(idle bool) {
	if idle {
		s.metrics.StallDecisions++
	} else {
		s.metrics.ResourceStalls++
	}
}

// tryPreempt displaces a running lower-priority job with the stalled job
// when the policy advises eligible cores. The victim is re-queued (appended
// to remaining, which preserves its priority position on the next pass).
func (s *Simulator) tryPreempt(job *Job, remaining *[]*Job) (bool, error) {
	adv, ok := s.Policy.(PreemptionAdvisor)
	if !ok {
		return false, nil
	}
	eligible, err := adv.EligibleCores(s, job)
	if err != nil {
		return false, err
	}
	var victim *SimCore
	for _, id := range eligible {
		if id < 0 || id >= len(s.cores) {
			return false, fmt.Errorf("core: advisor named core %d", id)
		}
		c := s.cores[id]
		if c.job == nil || c.profiling {
			continue
		}
		if c.job.Priority >= job.Priority {
			continue
		}
		// Prefer the lowest-priority victim; break ties toward the
		// latest-finishing one (most remaining work displaced).
		if victim == nil ||
			c.job.Priority < victim.job.Priority ||
			(c.job.Priority == victim.job.Priority && c.busyUntil > victim.busyUntil) {
			victim = c
		}
	}
	if victim == nil {
		return false, nil
	}
	cfg, err := adv.ConfigFor(s, job, victim.ID)
	if err != nil {
		return false, err
	}
	displaced, err := s.preempt(victim)
	if err != nil {
		return false, err
	}
	*remaining = append(*remaining, displaced)
	if err := s.start(job, victim, cfg, false); err != nil {
		return false, err
	}
	return true, nil
}

// sortByPriority orders the queue by descending priority, stable within a
// priority level (insertion order == arrival order).
func sortByPriority(queue []*Job) {
	// Insertion sort: queues are short and mostly ordered between passes.
	for i := 1; i < len(queue); i++ {
		j := queue[i]
		k := i - 1
		for k >= 0 && less(j, queue[k]) {
			queue[k+1] = queue[k]
			k--
		}
		queue[k+1] = j
	}
}

// less orders a before b: higher priority first, then earlier arrival.
func less(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Index < b.Index
}

// PreemptionAdvisor is the optional policy extension consulted in
// preemptive mode: which cores a job may preempt onto, and what
// configuration it should run there.
type PreemptionAdvisor interface {
	EligibleCores(s *Simulator, job *Job) ([]int, error)
	ConfigFor(s *Simulator, job *Job, coreID int) (cache.Config, error)
}

// Run simulates the workload to completion and returns the metrics.
func (s *Simulator) Run(jobs []Job) (Metrics, error) {
	return s.RunContext(context.Background(), jobs)
}

// RunContext is Run honoring cancellation: the context is checked at every
// event-loop iteration (a job-dispatch boundary), and a canceled context
// abandons the simulation mid-run with ctx.Err().
func (s *Simulator) RunContext(ctx context.Context, jobs []Job) (Metrics, error) {
	if len(jobs) == 0 {
		return Metrics{}, fmt.Errorf("core: empty workload")
	}
	s.metrics.Jobs = len(jobs)
	// The run's private copies of the jobs, which the queue points into
	// (preemption updates a job's remaining share in place).
	pending := slices.Clone(jobs)
	next := 0
	for {
		if err := ctx.Err(); err != nil {
			return s.metrics, err
		}
		// Determine the next event time: earliest pending arrival,
		// earliest completion, or — while work remains — earliest fault.
		nextEvent := uint64(0)
		have := false
		if next < len(jobs) {
			nextEvent = jobs[next].ArrivalCycle
			have = true
		}
		for _, c := range s.cores {
			if c.job != nil && (!have || c.busyUntil < nextEvent) {
				nextEvent = c.busyUntil
				have = true
			}
		}
		// Fault events drive the clock only while the run still has work
		// (queued jobs waiting on a recovery, say); once the last job is
		// done the machine's future faults are irrelevant.
		if s.inj != nil && (have || len(s.queue) > 0) {
			if fc, ok := s.inj.NextCycle(); ok && (!have || fc < nextEvent) {
				nextEvent = fc
				have = true
			}
		}
		if !have {
			if len(s.queue) > 0 {
				alive := 0
				for _, c := range s.cores {
					if !c.dead {
						alive++
					}
				}
				if alive == 0 {
					return s.metrics, fmt.Errorf("core: all cores permanently failed with %d jobs queued", len(s.queue))
				}
				return s.metrics, fmt.Errorf("core: %s deadlocked with %d queued jobs", s.Policy.Name(), len(s.queue))
			}
			break
		}
		if nextEvent > s.now {
			s.now = nextEvent
		}
		// Same-cycle order is fixed: completions land first (a job
		// finishing exactly when its core crashes survives), then faults,
		// then arrivals, then a scheduling pass over the updated machine.
		if err := s.completeDue(); err != nil {
			return s.metrics, err
		}
		if err := s.applyFaultsDue(); err != nil {
			return s.metrics, err
		}
		for next < len(jobs) && jobs[next].ArrivalCycle <= s.now {
			j := &pending[next]
			s.queue = append(s.queue, j)
			s.traceEnqueue(j)
			next++
		}
		if err := s.schedulePass(); err != nil {
			return s.metrics, err
		}
	}

	s.metrics.Makespan = s.now
	s.finishFaultAccounting()
	s.snapshotPredictorStats()
	for _, c := range s.cores {
		// A permanently dead core is powered off from deadAt on: it stops
		// leaking idle energy (transient outages still leak — the core is
		// powered, just unavailable).
		horizon := s.metrics.Makespan
		if c.dead {
			horizon = c.deadAt
		}
		idleCycles := uint64(0)
		if horizon > c.busyCycles {
			idleCycles = horizon - c.busyCycles
		}
		s.metrics.IdleEnergy += s.EM.IdleEnergy(c.SizeKB, idleCycles)
	}
	if err := s.selfCheck(); err != nil {
		return s.metrics, err
	}
	return s.metrics, nil
}

// selfCheck validates the run's accounting invariants: preemption refunds
// must never drive any energy component negative, every job must be
// accounted exactly once, and per-app attribution must partition the busy
// energy. Violations indicate a simulator bug, not a workload property.
func (s *Simulator) selfCheck() error {
	m := &s.metrics
	for name, v := range map[string]float64{
		"idle":      m.IdleEnergy,
		"dynamic":   m.DynamicEnergy,
		"static":    m.StaticEnergy,
		"core":      m.CoreEnergy,
		"profiling": m.ProfilingEnergy,
	} {
		if v < 0 {
			return fmt.Errorf("core: self-check: negative %s energy %v", name, v)
		}
	}
	if m.Completed != m.Jobs {
		return fmt.Errorf("core: self-check: completed %d of %d jobs", m.Completed, m.Jobs)
	}
	var attributed float64
	runs := 0
	for app, e := range m.PerAppEnergy {
		attributed += e
		runs += m.PerAppRuns[app]
	}
	busy := m.DynamicEnergy + m.StaticEnergy + m.CoreEnergy
	if diff := attributed - busy; diff > 1e-6*(busy+1) || diff < -1e-6*(busy+1) {
		return fmt.Errorf("core: self-check: per-app energy %v does not partition busy energy %v", attributed, busy)
	}
	if runs != m.Completed {
		return fmt.Errorf("core: self-check: per-app runs %d != completed %d", runs, m.Completed)
	}
	return nil
}

// Preload populates the profiling table before the run, implementing
// Section IV.B's design-time alternative: "if the applications were known a
// priori with profiling-based statistics recorded at design time ... this
// profiling information can be pre-loaded". Every application's features
// and best-size prediction are installed (eliminating runtime profiling);
// with full=true the per-size tuning state is also driven to completion
// from design-time exploration, eliminating runtime tuning as well.
func (s *Simulator) Preload(full bool) error {
	for i := range s.DB.Records {
		rec := &s.DB.Records[i]
		entry := s.Table.Ensure(rec.ID)
		entry.SetProfile(rec.Features)
		if s.Pred != nil {
			size, err := s.Pred.PredictSizeKB(rec.Features)
			if err != nil {
				return err
			}
			if err := entry.SetPrediction(size); err != nil {
				return err
			}
		}
		if !full {
			continue
		}
		for _, size := range cache.Sizes() {
			tn, err := entry.Tuner(size)
			if err != nil {
				return err
			}
			for !tn.Done() {
				cfg, ok := tn.Next()
				if !ok {
					break
				}
				cr, err := rec.Result(cfg)
				if err != nil {
					return err
				}
				if err := entry.RecordExecution(cfg, cr.Energy.Total, cr.Cycles); err != nil {
					return err
				}
				if err := tn.Observe(cfg, cr.Energy.Total); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NoteExplored lets policies report a newly explored (app, config) pair.
func (s *Simulator) NoteExplored(appID int) {
	s.metrics.ExploredPerApp[appID]++
}

// NoteTuningRun lets policies count a tuner-driven execution.
func (s *Simulator) NoteTuningRun() { s.metrics.TuningRuns++ }

// NoteNonBest lets policies count a placement on a non-best core.
func (s *Simulator) NoteNonBest() { s.metrics.NonBestPlacements++ }

// NoteSLOForced lets policies count an SLO-forced migration and its energy
// penalty versus the stall the energy rule preferred (clamped at zero:
// a forced migration that happens to be cheaper carries no penalty).
func (s *Simulator) NoteSLOForced(penaltyNJ float64) {
	s.metrics.SLOMigrations++
	if penaltyNJ > 0 {
		s.metrics.SLOEnergyPenaltyNJ += penaltyNJ
	}
}
