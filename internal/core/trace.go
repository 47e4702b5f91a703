package core

// Decision-audit emission: every scheduling decision and lifecycle
// transition the simulator makes is mirrored into the run's
// trace.Recorder when one is attached (SimConfig.Trace). Each helper is
// guarded by a nil check, so the disabled path does no work and allocates
// nothing — the invariance tests in trace_invariance_test.go prove the
// recorder's absence is bit-undetectable in the metrics.

import (
	"fmt"
	"strings"

	"hetsched/internal/cache"
	"hetsched/internal/fault"
	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// VotePredictor is the optional Predictor extension the tracer consults
// when auditing a prediction: how many ensemble members voted for each
// cache size (keyed by size in KB). Implemented by ann.SizePredictor;
// predictors without an ensemble simply omit vote counts from the event.
type VotePredictor interface {
	MemberVotes(f stats.Features) (map[int]int, error)
}

// traceEnqueue records a job entering the ready queue (arrival or
// post-fault re-queue).
func (s *Simulator) traceEnqueue(job *Job) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindEnqueue,
		Job: job.Index, App: job.AppID, Core: -1,
	})
}

// traceDispatch records an execution starting: the (possibly
// stuck-overridden) configuration, the profiling flag and the upfront
// execution-energy charge.
func (s *Simulator) traceDispatch(job *Job, c *SimCore, cfg cache.Config, profiling, overridden bool, energyNJ float64) {
	if s.tr == nil {
		return
	}
	detail := ""
	if overridden {
		detail = "stuck-override"
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindDispatch,
		Job: job.Index, App: job.AppID, Core: c.ID,
		Config: cfg.String(), Profiling: profiling,
		EnergyNJ: energyNJ, Detail: detail,
	})
}

// traceComplete records an execution finishing; profiling runs additionally
// emit the profiling window as its own interval event.
func (s *Simulator) traceComplete(job *Job, c *SimCore, cfg cache.Config, profiled bool) {
	if s.tr == nil {
		return
	}
	if profiled {
		s.tr.Record(trace.Event{
			Cycle: c.busyUntil, Kind: trace.KindProfile,
			Job: job.Index, App: job.AppID, Core: c.ID,
			Config: cfg.String(), Start: c.startedAt,
		})
	}
	s.tr.Record(trace.Event{
		Cycle: c.busyUntil, Kind: trace.KindComplete,
		Job: job.Index, App: job.AppID, Core: c.ID,
		Config: cfg.String(), Start: c.startedAt, Profiling: profiled,
	})
}

// tracePredict records the best-size prediction made from a completed
// profiling run: the (noise-perturbed) input features and, when the
// predictor exposes its ensemble, the per-size member vote counts.
func (s *Simulator) tracePredict(job *Job, f stats.Features, sizeKB int) {
	if s.tr == nil {
		return
	}
	var b strings.Builder
	b.WriteString("features=[")
	for i, v := range f {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString("]")
	if vp, ok := s.Pred.(VotingPredictor); ok {
		// Vote/confidence predictors (ensembles) audit named, weighted
		// member ballots plus the running per-member scorecard.
		if votes, err := vp.Votes(f); err == nil {
			b.WriteString(" votes=")
			for i, v := range votes {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s:%dKB:w%.3f:c%.2f", v.Name, v.SizeKB, v.Weight, v.Confidence)
			}
		}
		if rep, ok := s.Pred.(PredictorReporter); ok {
			writeMemberStats(&b, rep.PredictorSnapshot())
		}
	} else if vp, ok := s.Pred.(VotePredictor); ok {
		if votes, err := vp.MemberVotes(f); err == nil {
			b.WriteString(" votes=")
			first := true
			for _, size := range cache.Sizes() { // ascending: deterministic
				n, ok := votes[size]
				if !ok {
					continue
				}
				if !first {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%dKB:%d", size, n)
				first = false
			}
		}
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindPredict,
		Job: job.Index, App: job.AppID, Core: -1,
		SizeKB: sizeKB, Detail: b.String(),
	})
}

// writeMemberStats appends the per-member running scorecard (weight,
// hits/predictions, cumulative regret) to a prediction event's detail.
func writeMemberStats(b *strings.Builder, snap PredictorStats) {
	if len(snap.Members) == 0 {
		return
	}
	b.WriteString(" stats=")
	for i, m := range snap.Members {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s:w%.3f:h%d/%d:r%.1f", m.Name, m.Weight, m.Hits, m.Predictions, m.RegretNJ)
	}
}

// traceObserve records one outcome-feedback step of an online predictor:
// the size the execution actually ran at, the oracle best, the energy
// regret of the standing prediction, and the post-update per-member
// scorecard.
func (s *Simulator) traceObserve(job *Job, chosenKB, bestKB int, regretNJ float64) {
	if s.tr == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "observe chosen=%dKB best=%dKB regret=%.1f", chosenKB, bestKB, regretNJ)
	if rep, ok := s.Pred.(PredictorReporter); ok {
		writeMemberStats(&b, rep.PredictorSnapshot())
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindPredict,
		Job: job.Index, App: job.AppID, Core: -1,
		SizeKB: bestKB, EnergyNJ: regretNJ, Detail: b.String(),
	})
}

// traceTune records one Figure 5 tuning step: the configuration executed,
// the energy the tuner observed, and whether it improved the running best.
func (s *Simulator) traceTune(job *Job, cfg cache.Config, energyNJ float64, accepted bool) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindTune,
		Job: job.Index, App: job.AppID, Core: -1,
		Config: cfg.String(), EnergyNJ: energyNJ, Accepted: accepted,
	})
}

// traceStall records the Section IV.E energy-advantageous comparison:
// stallE (best-core execution energy plus the candidate's idle leakage over
// the wait window) against the candidate's migration energy, and which way
// the decision went. Core/Config identify the (best) migration candidate.
func (s *Simulator) traceStall(job *Job, c *SimCore, cfg cache.Config, stallE, runE float64, stalled bool) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindStall,
		Job: job.Index, App: job.AppID, Core: c.ID,
		Config: cfg.String(), EnergyNJ: stallE, AltEnergyNJ: runE,
		Accepted: stalled,
	})
}

// traceSLO records an SLO-forced migration: the stall the energy rule
// preferred was projected to complete at stallFinish, past the job's
// deadline, so the job migrated to candidate c instead. EnergyNJ/AltEnergyNJ
// mirror the stall-event convention (stall side vs migration side).
func (s *Simulator) traceSLO(job *Job, c *SimCore, cfg cache.Config, stallE, runE float64, stallFinish uint64) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindSLO,
		Job: job.Index, App: job.AppID, Core: c.ID,
		Config: cfg.String(), Start: stallFinish,
		EnergyNJ: stallE, AltEnergyNJ: runE, Accepted: true,
		Detail: fmt.Sprintf("deadline=%d", job.DeadlineCycle),
	})
}

// traceFault records one applied fault-injection event.
func (s *Simulator) traceFault(ev fault.Event) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: ev.Cycle, Kind: trace.KindFault,
		Job: -1, App: -1, Core: ev.Core,
		Detail: ev.Kind.String(),
	})
}

// traceKill records an execution killed by a core crash, with the energy
// already spent (and therefore wasted). The job's re-queue follows as its
// own enqueue event.
func (s *Simulator) traceKill(job *Job, c *SimCore, wastedNJ float64) {
	if s.tr == nil {
		return
	}
	s.tr.Record(trace.Event{
		Cycle: s.now, Kind: trace.KindKill,
		Job: job.Index, App: job.AppID, Core: c.ID,
		Config: c.jobCfg.String(), Start: c.startedAt,
		EnergyNJ: wastedNJ, Profiling: c.profiling,
	})
}
