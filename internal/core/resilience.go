package core

// Resilience: the scheduler's reaction to an injected fault plan
// (SimConfig.Faults; see internal/fault for the timeline generator).
//
// Four degradations are modelled. A transient crash kills the core's
// in-flight execution — the job's progress is lost, its already-spent
// energy is wasted (FaultEnergyNJ) and the job re-queues for a full
// re-execution; the core returns at the paired recovery event. A permanent
// crash does the same and removes the core for good (it powers off, so it
// stops leaking idle energy). A stuck reconfiguration jams a core at its
// currently loaded configuration: it keeps executing, but every placement
// asking for a different configuration is overridden in place. Counter
// noise perturbs the profiled features before they reach the table and the
// ANN, degrading predictions without touching ground-truth execution costs.
//
// Predictions are re-mapped onto the surviving machine by a generalized
// secondary-core fallback chain: Figure 1 gives Core 4 a secondary
// (Core 3); resolvePredictedSize extends that rule to every size class,
// walking down the size ladder first and then up until a living core is
// found.

import (
	"errors"
	"fmt"

	"hetsched/internal/cache"
	"hetsched/internal/fault"
	"hetsched/internal/stats"
)

// maxStalledKills bounds the executions faults may kill in a row with no
// job completing in between. A plan whose crashes come faster than jobs can
// run kills forever and the run never ends; a plan that lets even one
// attempt in 150 finish (a transient MTTF a fifth of the job length) stays
// far from the bound.
const maxStalledKills = 10000

// ErrNoProgress reports a run abandoned after maxStalledKills executions
// were killed in a row: the fault plan leaves no job a window to complete.
var ErrNoProgress = errors.New("core: the fault plan leaves no job a window to complete")

// applyFaultsDue consumes and applies every fault event due at the current
// simulation time, in the injector's deterministic (cycle, core, kind)
// order.
func (s *Simulator) applyFaultsDue() error {
	if s.inj == nil {
		return nil
	}
	for _, ev := range s.inj.PopDue(s.now) {
		c := s.cores[ev.Core]
		switch ev.Kind {
		case fault.CrashTransient:
			if c.dead || c.failed {
				continue // injector guarantees this cannot happen
			}
			c.failed = true
			c.downSince = s.now
			if c.job != nil {
				if err := s.killExecution(c); err != nil {
					return err
				}
			}
		case fault.Recover:
			if c.dead || !c.failed {
				continue
			}
			c.failed = false
			s.metrics.CoreDowntimeCycles += s.now - c.downSince
			s.recoveredDown += s.now - c.downSince
			s.metrics.Recoveries++
		case fault.CrashPermanent:
			if c.dead {
				continue
			}
			if c.failed {
				// The outage never ends; close it out as downtime up to
				// the death (the dead tail is added at run end).
				s.metrics.CoreDowntimeCycles += s.now - c.downSince
				c.failed = false
			}
			c.dead = true
			c.deadAt = s.now
			if c.job != nil {
				if err := s.killExecution(c); err != nil {
					return err
				}
			}
		case fault.StuckReconfig:
			if c.dead {
				continue
			}
			c.stuck = true
		}
		s.metrics.FaultEvents++
		s.metrics.FaultTimeline = append(s.metrics.FaultTimeline, ev)
		s.traceFault(ev)
	}
	return nil
}

// killExecution stops the execution on a crashed core. Unlike preemption,
// no progress survives: the job's remaining fraction is untouched and it
// re-queues for a full re-execution. The unexecuted share of the upfront
// energy charge is refunded (that work never ran); the executed share stays
// charged — it is real, wasted energy — and is additionally reported as
// FaultEnergyNJ, the fault-attributed overhead.
func (s *Simulator) killExecution(c *SimCore) error {
	job := c.job
	if job == nil {
		return fmt.Errorf("core: killing idle core %d", c.ID)
	}
	elapsed := s.now - c.startedAt
	if elapsed > c.execCycles {
		elapsed = c.execCycles
	}
	doneFrac := float64(elapsed) / float64(c.execCycles)
	undone := 1 - doneFrac

	s.metrics.DynamicEnergy -= c.chargedDyn * undone
	s.metrics.StaticEnergy -= c.chargedStatic * undone
	s.metrics.CoreEnergy -= c.chargedCore * undone
	s.metrics.PerAppEnergy[job.AppID] -= (c.chargedDyn + c.chargedStatic + c.chargedCore) * undone
	s.metrics.FaultEnergyNJ += (c.chargedDyn + c.chargedStatic + c.chargedCore) * doneFrac
	c.busyCycles -= c.execCycles - elapsed

	if s.Cfg.RecordSchedule {
		s.metrics.Schedule = append(s.metrics.Schedule, PlacementEvent{
			Start: c.startedAt, End: s.now,
			JobIndex: job.Index, AppID: job.AppID, CoreID: c.ID,
			Config: c.jobCfg, Profiling: c.profiling, Failed: true,
		})
	}
	s.traceKill(job, c, (c.chargedDyn+c.chargedStatic+c.chargedCore)*doneFrac)
	c.job = nil
	c.profiling = false
	c.busyUntil = s.now
	s.queue = append(s.queue, job)
	s.traceEnqueue(job)
	s.metrics.JobsRedispatched++
	if s.stalledKills++; s.stalledKills >= maxStalledKills {
		return fmt.Errorf("%w (%d executions killed since the last completion)", ErrNoProgress, s.stalledKills)
	}
	return nil
}

// finishFaultAccounting closes out downtime that was still open when the
// run drained and derives MTTR from the completed outages.
func (s *Simulator) finishFaultAccounting() {
	if s.inj == nil {
		return
	}
	for _, c := range s.cores {
		if c.dead {
			if s.metrics.Makespan > c.deadAt {
				s.metrics.CoreDowntimeCycles += s.metrics.Makespan - c.deadAt
			}
		} else if c.failed {
			if s.metrics.Makespan > c.downSince {
				s.metrics.CoreDowntimeCycles += s.metrics.Makespan - c.downSince
			}
		}
	}
	if s.metrics.Recoveries > 0 {
		s.metrics.MTTRCycles = s.recoveredDown / uint64(s.metrics.Recoveries)
	}
}

// sizeAlive reports whether any core of the given size survives (is not
// permanently dead).
func (s *Simulator) sizeAlive(sizeKB int) bool {
	for _, c := range s.CoresOfSize(sizeKB) {
		if !c.dead {
			return true
		}
	}
	return false
}

// resolvePredictedSize maps a predicted best cache size onto the surviving
// machine. When no living core of the predicted size exists — every one is
// permanently dead, or the configured shape never included that class —
// the prediction falls back along the size ladder — next smaller size
// first (the generalization of Figure 1's Core 4 → Core 3 secondary rule),
// then next larger — to the nearest size that still has a living core. On
// a full-ladder machine without permanent losses the prediction is
// returned unchanged.
func (s *Simulator) resolvePredictedSize(want int) int {
	// A size class can be missing because faults killed it or because the
	// configured shape never had it; the fallback ladder covers both.
	if s.sizeAlive(want) {
		return want
	}
	sizes := cache.Sizes() // ascending
	idx := len(sizes)
	for i, sz := range sizes {
		if sz == want {
			idx = i
			break
		}
	}
	for i := idx - 1; i >= 0; i-- {
		if s.sizeAlive(sizes[i]) {
			return sizes[i]
		}
	}
	for i := idx + 1; i < len(sizes); i++ {
		if s.sizeAlive(sizes[i]) {
			return sizes[i]
		}
	}
	return want // no survivors at all; the run errors out regardless
}

// noisyFeatures perturbs profiled counters by the plan's deterministic
// per-(application, counter) noise factors; with no injector (or zero
// noise, whose factor is exactly 1) the features pass through unchanged.
func (s *Simulator) noisyFeatures(appID int, f stats.Features) stats.Features {
	if s.inj == nil {
		return f
	}
	for d := range f {
		f[d] *= s.inj.FeatureScale(appID, d)
	}
	return f
}

// NoteFallback lets policies count a placement whose predicted size was
// re-mapped by the fallback chain.
func (s *Simulator) NoteFallback() { s.metrics.FallbackPlacements++ }
