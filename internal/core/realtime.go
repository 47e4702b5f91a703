package core

import (
	"fmt"

	"hetsched/internal/cache"
)

// This file implements the paper's future-work extension (Section VIII):
// priorities, deadlines and preemption. The baseline experiments assume
// "no form of preemption or priority" (Section V); everything here is
// opt-in via SimConfig.PriorityScheduling / SimConfig.Preemptive; the
// scenario spec (internal/scenario) stamps the priorities and deadlines.

// MissRate returns deadline misses over deadline-carrying completions.
func (m Metrics) MissRate() float64 {
	if m.DeadlinesTotal == 0 {
		return 0
	}
	return float64(m.DeadlineMisses) / float64(m.DeadlinesTotal)
}

// ClassMissRate is MissRate restricted to one SLO class's jobs.
func (m Metrics) ClassMissRate(class string) float64 {
	if m.ClassDeadlines[class] == 0 {
		return 0
	}
	return float64(m.ClassDeadlineMisses[class]) / float64(m.ClassDeadlines[class])
}

// ----------------------------------------------------------------------
// PreemptionAdvisor implementations.
// ----------------------------------------------------------------------

// EligibleCores implements PreemptionAdvisor: under the base system every
// core can host every job.
func (BasePolicy) EligibleCores(s *Simulator, job *Job) ([]int, error) {
	ids := make([]int, len(s.Cores()))
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

// ConfigFor implements PreemptionAdvisor.
func (BasePolicy) ConfigFor(s *Simulator, job *Job, coreID int) (cache.Config, error) {
	return cache.BaseConfig, nil
}

// predictedCores returns the cores of a profiled job's predicted best
// size; unprofiled jobs are not eligible to preempt (they must first pass
// through the profiling core).
func predictedCores(s *Simulator, job *Job) ([]int, error) {
	entry := s.Table.Ensure(job.AppID)
	if !entry.Profiled || entry.PredictedSizeKB == 0 {
		return nil, nil
	}
	var ids []int
	for _, c := range s.CoresOfSize(entry.PredictedSizeKB) {
		ids = append(ids, c.ID)
	}
	return ids, nil
}

// preemptConfigFor picks the configuration for a preemptive placement: the
// known best for the core's size, else the tuner's next step.
func preemptConfigFor(s *Simulator, job *Job, coreID int) (cache.Config, error) {
	if coreID < 0 || coreID >= len(s.Cores()) {
		return cache.Config{}, fmt.Errorf("core: bad core id %d", coreID)
	}
	cfg, tuning, err := tunedConfigFor(s, job.AppID, s.Cores()[coreID].SizeKB)
	if err != nil {
		return cache.Config{}, err
	}
	if tuning {
		s.NoteTuningRun()
	}
	return cfg, nil
}

// EligibleCores implements PreemptionAdvisor for the proposed system.
func (p ProposedPolicy) EligibleCores(s *Simulator, job *Job) ([]int, error) {
	return predictedCores(s, job)
}

// ConfigFor implements PreemptionAdvisor for the proposed system.
func (p ProposedPolicy) ConfigFor(s *Simulator, job *Job, coreID int) (cache.Config, error) {
	return preemptConfigFor(s, job, coreID)
}

// EligibleCores implements PreemptionAdvisor for the energy-centric system.
func (EnergyCentricPolicy) EligibleCores(s *Simulator, job *Job) ([]int, error) {
	return predictedCores(s, job)
}

// ConfigFor implements PreemptionAdvisor for the energy-centric system.
func (EnergyCentricPolicy) ConfigFor(s *Simulator, job *Job, coreID int) (cache.Config, error) {
	return preemptConfigFor(s, job, coreID)
}
