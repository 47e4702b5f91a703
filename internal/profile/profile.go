// Package profile implements the runtime profiling table (Section IV.A–B).
//
// The table lives on the primary profiling core (Core 4, with Core 3 able
// to read it over the existing interconnect) and stores, per application ID:
// the execution statistics captured while profiling in the base
// configuration, the ANN's best-core prediction, the energy and performance
// of every configuration the application has physically executed in, and
// the resumable tuning-heuristic state per core size. Storing these results
// eliminates future profiling executions and lets the tuning heuristic
// operate across multiple executions of the same application.
package profile

import (
	"fmt"

	"hetsched/internal/cache"
	"hetsched/internal/stats"
	"hetsched/internal/tuner"
)

// ConfigInfo is the stored outcome of executing an application once in a
// configuration: its total energy and execution cycles.
type ConfigInfo struct {
	Config cache.Config
	Energy float64
	Cycles uint64
}

// Entry is one application's row in the profiling table.
type Entry struct {
	AppID int

	// Profiled reports that the base-configuration profiling run happened
	// and Features are valid.
	Profiled bool
	// Features are the 18 execution statistics from profiling.
	Features stats.Features

	// PredictedSizeKB is the ANN's best-cache-size output (0 = not yet
	// predicted).
	PredictedSizeKB int

	explored map[cache.Config]ConfigInfo
	tuners   map[int]*tuner.Tuner
}

// Table is the profiling table. It is not safe for concurrent use; the
// scheduler that owns it is single-threaded, as in the paper's kernel.
type Table struct {
	entries map[int]*Entry
}

// NewTable returns an empty profiling table.
func NewTable() *Table {
	return &Table{entries: map[int]*Entry{}}
}

// Ensure returns the entry for appID, creating an empty one if needed.
func (t *Table) Ensure(appID int) *Entry {
	if e, ok := t.entries[appID]; ok {
		return e
	}
	e := &Entry{
		AppID:    appID,
		explored: map[cache.Config]ConfigInfo{},
		tuners:   map[int]*tuner.Tuner{},
	}
	t.entries[appID] = e
	return e
}

// SetProfile stores the profiling run's statistics.
func (e *Entry) SetProfile(f stats.Features) {
	e.Features = f
	e.Profiled = true
}

// SetPrediction stores the ANN's best-size output.
func (e *Entry) SetPrediction(sizeKB int) error {
	valid := false
	for _, s := range cache.Sizes() {
		if s == sizeKB {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("profile: predicted size %dKB not in design space", sizeKB)
	}
	e.PredictedSizeKB = sizeKB
	return nil
}

// RecordExecution stores the observed energy/cycles of one execution in
// cfg. Repeated executions in the same configuration overwrite (the
// simulator is deterministic, so the values are identical).
func (e *Entry) RecordExecution(cfg cache.Config, energyTotal float64, cycles uint64) error {
	if !cfg.Valid() {
		return fmt.Errorf("profile: invalid config %+v", cfg)
	}
	if energyTotal < 0 {
		return fmt.Errorf("profile: negative energy")
	}
	e.explored[cfg] = ConfigInfo{Config: cfg, Energy: energyTotal, Cycles: cycles}
	return nil
}

// Execution returns the stored result for cfg.
func (e *Entry) Execution(cfg cache.Config) (ConfigInfo, bool) {
	ci, ok := e.explored[cfg]
	return ci, ok
}

// Tuner returns the resumable tuning state for a core size, creating it on
// first use.
func (e *Entry) Tuner(sizeKB int) (*tuner.Tuner, error) {
	if tn, ok := e.tuners[sizeKB]; ok {
		return tn, nil
	}
	tn, err := tuner.New(sizeKB)
	if err != nil {
		return nil, err
	}
	e.tuners[sizeKB] = tn
	return tn, nil
}

// BestForSize returns the best known configuration for a core size. The
// result is authoritative only once the tuner for that size has finished
// exploring (known == true); before that the scheduler must treat the best
// configuration as unknown, per Section IV.E.
func (e *Entry) BestForSize(sizeKB int) (ConfigInfo, bool) {
	tn, ok := e.tuners[sizeKB]
	if !ok || !tn.Done() {
		return ConfigInfo{}, false
	}
	cfg, _, ok := tn.Best()
	if !ok {
		return ConfigInfo{}, false
	}
	ci, ok := e.explored[cfg]
	return ci, ok
}
