package characterize

import (
	"sync"
	"sync/atomic"

	"hetsched/internal/cache"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/stats"
	"hetsched/internal/vm"
)

// The replay reference: the kernel's trace is recorded, then replayed once
// per Table 1 configuration on an independent single-configuration
// simulator (cache.L1, or a one-core cache.SharedHierarchy). It is the oracle the
// equivalence tests (engine_test.go) hold the stream path against, and it
// runs on the same worker pool, so BenchmarkCharacterizeOneKernelReplay
// stays comparable with BenchmarkCharacterizeOneKernel.

// replayTraversals counts the reference's trace replays, one per (variant,
// configuration) pair it scores; TestEngineTraversalCounts reads it.
var replayTraversals atomic.Uint64

// characterizeReplay is CharacterizeWithOptions on the replay reference.
func characterizeReplay(variants []Variant, em *energy.Model, opts Options) (*DB, error) {
	return characterizeVariants(variants, em, opts, characterizeOneReplay)
}

// characterizeOneReplay is the reference path: one trace replay per
// configuration, fanned across the pool.
func characterizeOneReplay(v Variant, em *energy.Model, opts Options, jobs chan jobFunc) (Record, error) {
	k, err := eembc.ByName(v.Kernel)
	if err != nil {
		return Record{}, err
	}
	// Record the kernel's trace on the pool (it is as CPU-bound as a
	// replay), then fan the per-configuration replays out as one job each.
	var (
		ctr    vm.Counters
		tr     *vm.Trace
		recErr error
	)
	<-submit(jobs, func(*engineScratch) { ctr, tr, recErr = eembc.Record(k, v.Params) })
	if recErr != nil {
		return Record{}, recErr
	}
	rec := Record{
		Kernel:     v.Kernel,
		Params:     v.Params,
		BaseCycles: ctr.Cycles,
		Accesses:   uint64(tr.Len()),
	}
	space := cache.DesignSpace()
	rec.Configs = make([]ConfigResult, len(space))
	replayErrs := make([]error, len(space))
	var wg sync.WaitGroup
	for j, cfg := range space {
		wg.Add(1)
		jobs <- func(j int, cfg cache.Config) jobFunc {
			return func(*engineScratch) {
				defer wg.Done()
				if opts.L2 != nil {
					rec.Configs[j], replayErrs[j] = replayL2(tr, cfg, ctr.Cycles, opts.L2)
				} else {
					rec.Configs[j], replayErrs[j] = replayL1(tr, cfg, ctr.Cycles, em)
				}
			}
		}(j, cfg)
	}
	wg.Wait()
	for _, err := range replayErrs {
		if err != nil {
			return Record{}, err
		}
	}
	var baseHits, baseMisses uint64
	for j, cfg := range space {
		if cfg == cache.BaseConfig {
			baseHits, baseMisses = rec.Configs[j].Hits, rec.Configs[j].Misses
		}
	}
	rec.Features = stats.FromExecution(ctr, tr, baseHits, baseMisses)
	return rec, nil
}

// replayL1 is the reference engine's paper mode: every L1 miss pays the
// off-chip penalty.
func replayL1(tr *vm.Trace, cfg cache.Config, baseCycles uint64, em *energy.Model) (ConfigResult, error) {
	replayTraversals.Add(1)
	l1, err := cache.NewL1(cfg)
	if err != nil {
		return ConfigResult{}, err
	}
	for _, a := range tr.Accesses {
		l1.Access(a.Addr, a.Write)
	}
	s := l1.Stats()
	return resultL1(cfg, s.Hits, s.Misses, baseCycles, em), nil
}

// replayL2 is the reference engine's extension mode: the trace runs through
// the two-level hierarchy and misses split into L2 hits and true off-chip
// accesses.
func replayL2(tr *vm.Trace, cfg cache.Config, baseCycles uint64, em *energy.L2Model) (ConfigResult, error) {
	replayTraversals.Add(1)
	// One core over its own L2 is the private two-level hierarchy.
	h, err := cache.NewSharedHierarchy(1, cfg, em.L2Params().Config)
	if err != nil {
		return ConfigResult{}, err
	}
	var l1Hits, l2Hits, offChip uint64
	for _, a := range tr.Accesses {
		r, err := h.Access(0, a.Addr, a.Write)
		if err != nil {
			return ConfigResult{}, err
		}
		switch {
		case r.L1Hit:
			l1Hits++
		case r.L2Hit:
			l2Hits++
		default:
			offChip++
		}
	}
	return resultL2(cfg, l1Hits, l2Hits, offChip, baseCycles, em), nil
}
