// Package tuner implements the paper's cache tuning heuristic (Figure 5).
//
// When an application lands on a core whose best configuration is unknown,
// the heuristic explores that core's design-space subset one configuration
// per execution, resuming from profiling-table state across executions:
// associativity is explored first (it has the second-largest energy impact
// after size), smallest to largest, while energy keeps decreasing; the line
// size is then explored the same way with the associativity fixed at its
// best value. Exploration therefore evaluates at least 2 and at most
// |assoc|+|lines|-1 configurations of the core's subset — far fewer than
// exhaustive search (the paper observed no benchmark exploring more than 6).
package tuner

import (
	"fmt"

	"hetsched/internal/cache"
)

type phase int

const (
	phaseAssoc phase = iota
	phaseLine
	phaseDone
)

// Tuner is the per-(application, core-size) exploration state machine. It is
// resumable: callers persist it in the profiling table and feed it one
// observation per execution.
type Tuner struct {
	sizeKB int
	assocs []int
	lines  []int

	ph       phase
	aIdx     int // index of the associativity candidate being tried
	lIdx     int // index of the line-size candidate being tried
	bestCfg  cache.Config
	bestE    float64
	haveBest bool
	explored []cache.Config
}

// New builds a tuner for a core with the given fixed cache size.
func New(sizeKB int) (*Tuner, error) {
	assocs := cache.Associativities(sizeKB)
	if len(assocs) == 0 {
		return nil, fmt.Errorf("tuner: no configurations for size %dKB", sizeKB)
	}
	return &Tuner{
		sizeKB: sizeKB,
		assocs: assocs,
		lines:  cache.LineSizes(),
	}, nil
}

// MustNew is New panicking on error (sizes come from the design space).
func MustNew(sizeKB int) *Tuner {
	t, err := New(sizeKB)
	if err != nil {
		panic(err)
	}
	return t
}

// Walk drives the heuristic to completion against an energy source — one
// Next/Observe round per simulated execution — and reports the first
// error. It is the loop every consumer of a characterization record was
// hand-rolling (CLI, facade, daemon); with the one-pass characterization
// engine, every energy a walk consumes came out of a single trace
// traversal, so a full walk costs no additional simulation.
func Walk(t *Tuner, energyOf func(cache.Config) (float64, error)) error {
	for !t.Done() {
		cfg, ok := t.Next()
		if !ok {
			break
		}
		e, err := energyOf(cfg)
		if err != nil {
			return err
		}
		if err := t.Observe(cfg, e); err != nil {
			return err
		}
	}
	return nil
}

// Done reports whether exploration has finished.
func (t *Tuner) Done() bool { return t.ph == phaseDone }

// Explored returns the configurations evaluated so far, in order.
func (t *Tuner) Explored() []cache.Config {
	return append([]cache.Config(nil), t.explored...)
}

// Best returns the lowest-energy configuration found so far.
func (t *Tuner) Best() (cache.Config, float64, bool) {
	return t.bestCfg, t.bestE, t.haveBest
}

// Next returns the configuration the application should execute with on its
// next run on this core. ok is false when exploration is complete (use Best).
func (t *Tuner) Next() (cfg cache.Config, ok bool) {
	switch t.ph {
	case phaseAssoc:
		return cache.Config{SizeKB: t.sizeKB, Ways: t.assocs[t.aIdx], LineBytes: t.lines[0]}, true
	case phaseLine:
		return cache.Config{SizeKB: t.sizeKB, Ways: t.bestCfg.Ways, LineBytes: t.lines[t.lIdx]}, true
	default:
		return cache.Config{}, false
	}
}

// Observe records the measured total energy of one execution in cfg, which
// must be the configuration returned by Next. It advances the exploration.
func (t *Tuner) Observe(cfg cache.Config, energyTotal float64) error {
	want, ok := t.Next()
	if !ok {
		return fmt.Errorf("tuner: observation after exploration finished")
	}
	if cfg != want {
		return fmt.Errorf("tuner: observed %s, expected %s", cfg, want)
	}
	if energyTotal < 0 {
		return fmt.Errorf("tuner: negative energy %v", energyTotal)
	}
	t.explored = append(t.explored, cfg)

	improved := !t.haveBest || energyTotal < t.bestE
	if improved {
		t.bestCfg, t.bestE, t.haveBest = cfg, energyTotal, true
	}

	switch t.ph {
	case phaseAssoc:
		if improved && t.aIdx+1 < len(t.assocs) {
			t.aIdx++
			return nil
		}
		// Energy rose or associativities exhausted: fix the best
		// associativity and move to line-size exploration.
		t.ph = phaseLine
		t.lIdx = 1 // lines[0] was covered during the associativity phase
		if t.lIdx >= len(t.lines) {
			t.ph = phaseDone
		}
	case phaseLine:
		if improved && t.lIdx+1 < len(t.lines) {
			t.lIdx++
			return nil
		}
		t.ph = phaseDone
	}
	return nil
}
