// Package core implements the paper's primary contribution: the dynamic
// scheduler for a heterogeneous quad-core system with configurable caches,
// together with the discrete-event simulator and the three comparison
// systems of Section V (base, optimal, energy-centric) against which the
// proposed system is evaluated.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hetsched/internal/characterize"
)

// Job is one benchmark arrival.
type Job struct {
	// Index is the arrival sequence number.
	Index int
	// AppID indexes the characterization DB (the paper's benchmark
	// identification number).
	AppID int
	// ArrivalCycle is the arrival time in cycles.
	ArrivalCycle uint64

	// Priority orders the ready queue when priority scheduling is enabled
	// (higher runs first; 0 is the default for the paper's FIFO setup).
	Priority int
	// DeadlineCycle is the absolute completion deadline. A job carries a
	// deadline when HasDeadline is set or, for legacy callers that assign
	// DeadlineCycle directly, when it is non-zero (see Deadlined). Missed
	// deadlines are counted in Metrics.DeadlineMisses.
	DeadlineCycle uint64
	// HasDeadline marks the job as deadline-carrying explicitly, so a
	// computed deadline that lands exactly on cycle 0 is not silently
	// dropped. SetDeadline keeps it consistent.
	HasDeadline bool
	// Class is the job's scenario SLO class name ("" outside scenario
	// runs); per-class deadline accounting keys Metrics.ClassDeadlines.
	Class string

	// remainingFrac is the unexecuted share of the job (1 until first
	// started; reduced when preempted mid-execution).
	remainingFrac float64
}

// SetDeadline installs an absolute deadline, marking the job
// deadline-carrying even when cycle is 0.
func (j *Job) SetDeadline(cycle uint64) {
	j.DeadlineCycle = cycle
	j.HasDeadline = true
}

// Deadlined reports whether the job carries a deadline: the explicit bit,
// or — for legacy callers assigning DeadlineCycle directly — a non-zero
// deadline cycle.
func (j *Job) Deadlined() bool { return j.HasDeadline || j.DeadlineCycle > 0 }

// remaining returns the unexecuted share, defaulting to the whole job.
func (j *Job) remaining() float64 {
	if j.remainingFrac == 0 {
		return 1
	}
	return j.remainingFrac
}

// WorkloadConfig controls workload generation. The paper creates 5000
// uniformly distributed arrivals over the full EEMBC suite.
type WorkloadConfig struct {
	// Arrivals is the number of jobs (paper: 5000).
	Arrivals int
	// AppIDs is the population of application IDs to draw uniformly from.
	AppIDs []int
	// HorizonCycles spreads arrivals over [0, HorizonCycles).
	HorizonCycles uint64
	// Seed drives the draws.
	Seed int64
}

// Validate reports configuration errors.
func (c WorkloadConfig) Validate() error {
	if c.Arrivals < 1 {
		return fmt.Errorf("core: arrivals %d < 1", c.Arrivals)
	}
	if len(c.AppIDs) == 0 {
		return fmt.Errorf("core: no application IDs")
	}
	if c.HorizonCycles == 0 {
		return fmt.Errorf("core: zero horizon")
	}
	return nil
}

// GenerateWorkload draws the paper's stream: i.i.d. uniform arrival times
// over the horizon with uniformly chosen applications, sorted by arrival
// time. Every other arrival process is a scenario source
// (internal/scenario), whose uniform source delegates here.
func GenerateWorkload(cfg WorkloadConfig) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Draw (app, arrival) pairs interleaved — the original stream layout,
	// kept bit-identical so seeded experiments stay stable.
	jobs := make([]Job, cfg.Arrivals)
	for i := range jobs {
		jobs[i] = Job{
			AppID:        cfg.AppIDs[rng.Intn(len(cfg.AppIDs))],
			ArrivalCycle: uint64(rng.Int63n(int64(cfg.HorizonCycles))),
		}
	}
	return FinishWorkload(jobs), nil
}

// FinishWorkload sorts jobs by (arrival, app) and assigns their indices —
// the ordering contract every generated or replayed workload shares.
func FinishWorkload(jobs []Job) []Job {
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].ArrivalCycle != jobs[j].ArrivalCycle {
			return jobs[i].ArrivalCycle < jobs[j].ArrivalCycle
		}
		return jobs[i].AppID < jobs[j].AppID
	})
	for i := range jobs {
		jobs[i].Index = i
	}
	return jobs
}

// HorizonForUtilization sizes the arrival horizon so the quad-core system
// runs at roughly the requested utilization (0 < util <= ~1.5): the sum of
// best-configuration execution times of the drawn population, divided by
// core count and utilization. Higher utilization means more contention and
// more scheduler decisions — the regime the paper's results live in.
func HorizonForUtilization(db *characterize.DB, appIDs []int, arrivals, cores int, util float64) (uint64, error) {
	if util <= 0 || util > 4 {
		return 0, fmt.Errorf("core: utilization %v out of range", util)
	}
	if cores < 1 {
		return 0, fmt.Errorf("core: %d cores", cores)
	}
	if len(appIDs) == 0 {
		return 0, fmt.Errorf("core: no application IDs")
	}
	var mean float64
	for _, id := range appIDs {
		rec, err := db.Record(id)
		if err != nil {
			return 0, err
		}
		mean += float64(rec.BestConfig().Cycles)
	}
	mean /= float64(len(appIDs))
	horizon := mean * float64(arrivals) / float64(cores) / util
	if horizon < 1 {
		horizon = 1
	}
	if horizon > math.MaxInt64 {
		// Arrival times are drawn as int64 cycle counts.
		return 0, fmt.Errorf("core: utilization %v spreads %d arrivals beyond the int64 cycle range", util, arrivals)
	}
	return uint64(horizon), nil
}

// AllAppIDs returns every application ID in the DB.
func AllAppIDs(db *characterize.DB) []int {
	ids := make([]int, len(db.Records))
	for i := range db.Records {
		ids[i] = db.Records[i].ID
	}
	return ids
}
