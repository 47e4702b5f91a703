package core

import (
	"hetsched/internal/cache"
)

// SaTPolicy approximates the paper's prior-work baseline [1] (Alsafrjalani &
// Gordon-Ross, "Dynamic Scheduling for Reduced Energy in
// Configuration-Subsetted Heterogeneous Multicore Systems"): scheduling and
// tuning without machine learning. The best core is not predicted — it is
// *discovered* by physically running the tuning heuristic on every core
// size over successive executions; until every size has been tuned, the
// application keeps exploring. Afterwards it behaves like the proposed
// system's placement (best core first, non-best when the best is busy)
// minus the ANN and minus the energy-advantageous comparison.
//
// Comparing SaT to the proposed system isolates exactly what the paper
// claims the ANN buys: skipping most of the physical exploration.
type SaTPolicy struct{}

// Name implements Policy.
func (SaTPolicy) Name() string { return "sat" }

// satBestSize returns the energy-best size once every size has been tuned.
func satBestSize(s *Simulator, appID int) (int, bool) {
	entry := s.Table.Ensure(appID)
	best, bestE := 0, 0.0
	for _, size := range cache.Sizes() {
		ci, ok := entry.BestForSize(size)
		if !ok {
			return 0, false
		}
		if best == 0 || ci.Energy < bestE {
			best, bestE = size, ci.Energy
		}
	}
	return best, true
}

func (SaTPolicy) stallRules() stallRules { return stallWhenBusy | stallPerApp }

// Decide implements Policy.
func (SaTPolicy) Decide(s *Simulator, job *Job) (Decision, error) {
	entry := s.Table.Ensure(job.AppID)
	if !entry.Profiled {
		d, ok := profilingDecision(s, job.AppID)
		if !ok {
			return Decision{}, nil
		}
		return d, nil
	}
	idle := s.IdleCores()
	if len(idle) == 0 {
		return Decision{}, nil
	}

	// Exploration phase: tune any idle core whose best is still unknown
	// (one heuristic step per execution, lowest core ID first).
	for _, c := range idle {
		if _, known := entry.BestForSize(c.SizeKB); !known {
			cfg, tuning, err := tunedConfigFor(s, job.AppID, c.SizeKB)
			if err != nil {
				return Decision{}, err
			}
			if tuning {
				s.NoteTuningRun()
			}
			return Decision{Place: true, CoreID: c.ID, Config: cfg}, nil
		}
	}

	// Every idle core tuned. If the global best size is known, prefer a
	// best-size core; else (best size hides behind a busy untuned core)
	// run on the cheapest tuned idle core.
	if bestSize, ok := satBestSize(s, job.AppID); ok {
		for _, c := range idle {
			if c.SizeKB == bestSize {
				ci, _ := entry.BestForSize(bestSize)
				return Decision{Place: true, CoreID: c.ID, Config: ci.Config}, nil
			}
		}
	}
	var pick *SimCore
	var pickCfg cache.Config
	pickE := 0.0
	for _, c := range idle {
		ci, ok := entry.BestForSize(c.SizeKB)
		if !ok {
			continue
		}
		if pick == nil || ci.Energy < pickE {
			pick, pickCfg, pickE = c, ci.Config, ci.Energy
		}
	}
	if pick == nil {
		return Decision{}, nil
	}
	s.NoteNonBest()
	return Decision{Place: true, CoreID: pick.ID, Config: pickCfg}, nil
}

// OnComplete implements Policy.
func (SaTPolicy) OnComplete(s *Simulator, job *Job, c *SimCore, cfg cache.Config, profiled bool) error {
	return recordCompletion(s, job, cfg, profiled)
}
