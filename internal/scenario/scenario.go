package scenario

// Workload generation: Spec × characterization DB → []core.Job, plus the
// SLO application layer (classes, priorities, deadlines) and the SimConfig
// arming hook.

import (
	"fmt"
	"math/rand"
	"sort"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
)

// sloSeedSalt decorrelates the SLO class-assignment stream from the
// arrival/app stream of the same seed.
const sloSeedSalt = 0x5105_0f05_a4a4_a4a4

// prioSeedOffset seeds the prio=uniform:N draw, the package's one math/rand
// stream: job i gets the i-th rand.New(rand.NewSource(seed+1)).Intn(N). It
// is the draw the daemon's retired priority_levels field made, so that
// field's spec answers byte-identically.
const prioSeedOffset = 1

// Params bundles the workload-shaping inputs Generate needs beyond the
// spec itself. Spec fields override their Params counterparts: Rate beats
// Utilization, Jobs beats Arrivals.
type Params struct {
	// DB is the characterization database (service-time estimates,
	// deadline scaling).
	DB *characterize.DB
	// Arrivals is the job count unless the spec pins jobs=.
	Arrivals int
	// Cores sizes the horizon (default 4, the paper's quad-core).
	Cores int
	// Utilization is the offered load unless the spec pins rate=.
	Utilization float64
	// Seed drives every draw; a fixed (spec, Params) pair is fully
	// deterministic.
	Seed int64
}

// Generate materializes the scenario into a reproducible job stream:
// arrivals from the spec's source, apps drawn uniformly from the mix (open
// systems) or per-client (closed), the SLO layer applied on top, then the
// prio draw.
// The uniform source reproduces core.GenerateWorkload's legacy stream
// bit-identically.
func (sp Spec) Generate(p Params) ([]core.Job, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.IsZero() {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	if p.DB == nil {
		return nil, fmt.Errorf("scenario: nil characterization DB")
	}
	appIDs, err := sp.population(p.DB)
	if err != nil {
		return nil, err
	}
	n := p.Arrivals
	if sp.Jobs > 0 {
		n = sp.Jobs
	}
	util := p.Utilization
	if sp.Rate > 0 {
		util = sp.Rate
	}
	cores := p.Cores
	if cores == 0 {
		cores = 4
	}

	var jobs []core.Job
	switch sp.Source {
	case "replay":
		jobs, err = ReadTraceWorkload(sp.Path)
		if err != nil {
			return nil, err
		}
		if sp.Jobs > 0 && sp.Jobs < len(jobs) {
			jobs = core.FinishWorkload(jobs[:sp.Jobs])
		}
	case "uniform":
		// The arrival count is left to core.GenerateWorkload's
		// validation, so a bad utilization is reported first, in the
		// facade's long-standing error order.
		horizon, err := core.HorizonForUtilization(p.DB, appIDs, n, cores, util)
		if err != nil {
			return nil, err
		}
		jobs, err = core.GenerateWorkload(core.WorkloadConfig{
			Arrivals:      n,
			AppIDs:        appIDs,
			HorizonCycles: horizon,
			Seed:          p.Seed,
		})
		if err != nil {
			return nil, err
		}
	case "closed":
		if n < 1 {
			return nil, fmt.Errorf("scenario: %d arrivals", n)
		}
		svc, err := serviceTimes(p.DB, appIDs)
		if err != nil {
			return nil, err
		}
		r := newRNG(p.Seed)
		arrivals, apps := sp.closedStream(n, appIDs, svc, r)
		jobs = make([]core.Job, n)
		for i := range jobs {
			jobs[i] = core.Job{AppID: apps[i], ArrivalCycle: arrivals[i]}
		}
		jobs = core.FinishWorkload(jobs)
	default: // poisson, bursty, diurnal
		if n < 1 {
			return nil, fmt.Errorf("scenario: %d arrivals", n)
		}
		horizon, err := core.HorizonForUtilization(p.DB, appIDs, n, cores, util)
		if err != nil {
			return nil, err
		}
		r := newRNG(p.Seed)
		arrivals, err := sp.arrivalStream(n, horizon, r)
		if err != nil {
			return nil, err
		}
		jobs = make([]core.Job, n)
		for i := range jobs {
			jobs[i] = core.Job{
				AppID:        appIDs[r.intn(len(appIDs))],
				ArrivalCycle: arrivals[i],
			}
		}
		jobs = core.FinishWorkload(jobs)
	}

	if err := sp.ApplySLO(jobs, p.DB, p.Seed); err != nil {
		return nil, err
	}
	if sp.PrioLevels > 0 {
		r := rand.New(rand.NewSource(p.Seed + prioSeedOffset))
		for i := range jobs {
			jobs[i].Priority = r.Intn(sp.PrioLevels)
		}
	}
	return jobs, nil
}

// population resolves the kernel mix to application IDs in mix order
// (a repeated name weights its kernel); no mix is the whole DB.
func (sp Spec) population(db *characterize.DB) ([]int, error) {
	if len(sp.Mix) == 0 {
		return core.AllAppIDs(db), nil
	}
	ids := make([]int, len(sp.Mix))
	for i, name := range sp.Mix {
		rec, err := db.Find(name, eembc.DefaultParams())
		if err != nil {
			return nil, err
		}
		ids[i] = rec.ID
	}
	return ids, nil
}

// serviceTimes returns a best-config cycle lookup over the population.
func serviceTimes(db *characterize.DB, appIDs []int) (func(int) uint64, error) {
	m := make(map[int]uint64, len(appIDs))
	for _, id := range appIDs {
		rec, err := db.Record(id)
		if err != nil {
			return nil, err
		}
		m[id] = rec.BestConfig().Cycles
	}
	return func(id int) uint64 { return m[id] }, nil
}

// ApplySLO stamps the SLO layer onto a finished job stream: each job is
// drawn into a class (or the "default" remainder), gets the class priority
// (classes are listed highest-first; default is 0), and a deadline of
// arrival + slack × best-config cycles. A spec without an SLO section is a
// no-op. The class draw uses its own salted SplitMix64 stream, so the
// arrival stream is untouched.
func (sp Spec) ApplySLO(jobs []core.Job, db *characterize.DB, seed int64) error {
	if !sp.SLO.Enabled {
		return nil
	}
	defSlack := orDefault(sp.SLO.Slack, DefaultSlack)
	r := newRNG(seed ^ sloSeedSalt)
	for i := range jobs {
		class, prio, slack := "default", 0, defSlack
		u := r.float64()
		acc := 0.0
		for ci, c := range sp.SLO.Classes {
			acc += c.Frac
			if u < acc {
				class = c.Name
				prio = len(sp.SLO.Classes) - ci
				slack = orDefault(c.Slack, defSlack)
				break
			}
		}
		rec, err := db.Record(jobs[i].AppID)
		if err != nil {
			return err
		}
		jobs[i].Class = class
		jobs[i].Priority = prio
		jobs[i].SetDeadline(jobs[i].ArrivalCycle + uint64(slack*float64(rec.BestConfig().Cycles)))
	}
	return nil
}

// ApplySim arms the simulator features the scenario needs: the SLO-aware
// stall-vs-migrate rule when an SLO section is present, and priority
// scheduling when the spec sets priorities (SLO classes or prio=).
func (sp Spec) ApplySim(sim *core.SimConfig) {
	if sp.SLO.Enabled {
		sim.SLOAware = true
	}
	if len(sp.SLO.Classes) > 0 || sp.PrioLevels > 0 {
		sim.PriorityScheduling = true
	}
}

// ArrivalFractions renders the scenario's arrival shape as n normalized
// fractions of the run duration, for load generators that pace requests by
// the scenario's process rather than its absolute cycle times. The closed
// source uses unit service times; uniform draws i.i.d. and sorts; replay
// is unsupported (a load generator should not need the trace file).
func ArrivalFractions(sp Spec, n int, seed int64) ([]float64, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.IsZero() || n < 1 {
		return nil, fmt.Errorf("scenario: need a source and n >= 1")
	}
	const horizon = 1 << 20
	var arrivals []uint64
	switch sp.Source {
	case "replay":
		return nil, fmt.Errorf("scenario: replay cannot shape synthetic load")
	case "uniform":
		r := newRNG(seed)
		arrivals = make([]uint64, n)
		for i := range arrivals {
			arrivals[i] = uint64(r.float64() * horizon)
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	case "closed":
		r := newRNG(seed)
		unit := func(int) uint64 { return horizon / uint64(4*n) }
		arrivals, _ = sp.closedStream(n, []int{0}, unit, r)
	default:
		r := newRNG(seed)
		var err error
		arrivals, err = sp.arrivalStream(n, horizon, r)
		if err != nil {
			return nil, err
		}
	}
	span := arrivals[len(arrivals)-1]
	if span == 0 {
		span = 1
	}
	out := make([]float64, n)
	for i, a := range arrivals {
		out[i] = float64(a) / float64(span)
	}
	return out, nil
}
