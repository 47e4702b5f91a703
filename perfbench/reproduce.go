package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"hetsched"
	"hetsched/internal/ann"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/energy"
)

// pipeline is one run of the paper pipeline and the inputs its experiment
// ran on.
type pipeline struct {
	eval *characterize.DB
	bag  *ann.SizePredictor
	cfg  core.ExperimentConfig
	res  *core.ExperimentResult
}

// reproducer runs the reproduce workload's op: the cold paper pipeline,
// built from the library calls directly. hetsched.New would share three
// process-wide memos (characterize.Default, characterize.Augmented and
// ann.DefaultPredictor), leaving only a process's first op cold.
type reproducer struct {
	b          *bench
	em         *energy.Model
	canon, aug []characterize.Variant
	charAlloc  uint64 // traced ops: bytes allocated inside characterization
	trainAlloc uint64 // traced ops: bytes allocated inside training
}

func experimentConfig(seed int64) core.ExperimentConfig {
	cfg := core.DefaultExperimentConfig() // 5000 uniform arrivals at u=0.9
	cfg.Seed = seed
	return cfg
}

// op characterizes the canonical (16) and augmented (96) variants, trains
// the 30-network bag with seed 42, and runs the four-system experiment. On
// a traced op the experiment is re-enacted step by step so workload
// generation and each system's simulation get their own spans; the caller
// checks that result against RunExperimentContext's.
func (r *reproducer) op(ctx context.Context, tr *tracer, op int, seed int64) (*pipeline, error) {
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	copts := characterize.Options{Workers: poolWorkers}
	p := &pipeline{cfg: experimentConfig(seed)}
	var (
		train *characterize.DB
		err   error
	)
	r.charAlloc += allocDuring(tr, func() {
		sp := tr.begin("characterize", root, op)
		p.eval, err = characterize.CharacterizeWithOptions(r.canon, r.em, copts)
		tr.end(sp)
		if err != nil {
			return
		}
		sp = tr.begin("characterize", root, op)
		train, err = characterize.CharacterizeWithOptions(r.aug, r.em, copts)
		tr.end(sp)
	})
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}
	r.trainAlloc += allocDuring(tr, func() {
		sp := tr.begin("ann.train", root, op)
		p.bag, _, err = ann.TrainSizePredictor(train, ann.PredictorConfig{
			Seed: 42, Workers: poolWorkers, Ensemble: ann.EnsembleConfig{Members: 30},
		})
		tr.end(sp)
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if tr == nil {
		p.res, err = core.RunExperimentContext(ctx, p.eval, r.em, p.bag, p.cfg)
		return p, err
	}

	pred, err := r.b.meter.wrap(p.bag)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	wsp := tr.begin("core.workload", root, op)
	ids := core.AllAppIDs(p.eval)
	horizon, err := core.HorizonForUtilization(p.eval, ids, cfg.Arrivals, len(cfg.Sim.CoreSizesKB), cfg.Utilization)
	var jobs []core.Job
	if err == nil {
		jobs, err = core.GenerateWorkload(core.WorkloadConfig{
			Arrivals: cfg.Arrivals, AppIDs: ids, HorizonCycles: horizon, Seed: cfg.Seed,
		})
	}
	tr.end(wsp)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	p.res = &core.ExperimentResult{}
	for _, sys := range []struct {
		name string
		into *core.Metrics
	}{
		{"base", &p.res.Base},
		{"optimal", &p.res.Optimal},
		{"energy-centric", &p.res.EnergyCentric},
		{"proposed", &p.res.Proposed},
	} {
		pol, needsPred, err := core.NewPolicy(sys.name)
		if err != nil {
			return nil, err
		}
		var sp core.Predictor
		if needsPred {
			sp = pred
		}
		sc := cfg.Sim
		sc.CoreSizesKB = core.CoreSizesFor(sys.name, cfg.Sim.CoreSizesKB)
		*sys.into, err = r.b.simulate(tr, "core.sim."+sys.name, root, op, len(jobs), func(span int) (core.Metrics, error) {
			r.b.meter.attribute(span, op)
			sim, err := core.NewSimulator(p.eval, r.em, pol, sp, sc)
			if err != nil {
				return core.Metrics{}, err
			}
			return sim.RunContext(ctx, jobs)
		})
		if err != nil {
			return nil, fmt.Errorf("simulate %s: %w", sys.name, err)
		}
	}
	return p, nil
}

// checkExperiment verifies that every system completed every job.
func checkExperiment(res *core.ExperimentResult) error {
	for _, m := range res.Systems() {
		if m.Jobs != 5000 || m.Completed != m.Jobs {
			return fmt.Errorf("%s completed %d of %d jobs", m.System, m.Completed, m.Jobs)
		}
	}
	return nil
}

func energySavingPct(res *core.ExperimentResult) float64 {
	return 100 * (1 - res.Proposed.TotalEnergy()/res.Base.TotalEnergy())
}

func runReproduce(ctx context.Context, b *bench) error {
	b.dig = newDigest(2) // the warm-up op and the first measured op
	b.meter = newPredMeter(b.tr, "ann")
	r := &reproducer{
		b:     b,
		em:    energy.NewDefault(),
		canon: characterize.CanonicalVariants(),
		aug:   characterize.AugmentedVariants(),
	}
	record := func(op int, p *pipeline) bool {
		if err := checkExperiment(p.res); err != nil {
			b.opFailed(op, "%v", err)
			return false
		}
		out, err := json.Marshal(p.res)
		if err == nil {
			err = b.dig.add(op, out)
		}
		if err != nil {
			b.opFailed(op, "%v", err)
			return false
		}
		return true
	}

	// Set-up: one warm-up op (op 0) per round, each after a cold start.
	var warm *core.ExperimentResult
	for round := 0; round < b.rounds(); round++ {
		coldStart()
		b.attempt()
		t0 := time.Now()
		p, err := r.op(ctx, nil, 0, b.opSeed(0))
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if err != nil {
			b.opFailed(0, "%v", err)
			return fmt.Errorf("set-up: %w", err)
		}
		record(0, p)
		warm = p.res
	}

	var saving []float64
	alloc0 := memStats().TotalAlloc
	deadline := time.Now().Add(b.duration())
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		tr := b.opTracer(i)
		tr.setMetering(true)
		b.attempt()
		t0 := time.Now()
		p, err := r.op(ctx, tr, i, b.opSeed(i))
		elapsed := time.Since(t0)
		tr.setMetering(false)
		if err != nil {
			b.opFailed(i, "%v", err)
			continue
		}
		b.measuredOps++
		b.recordOp(elapsed, tr != nil)
		b.simJobs += float64(4 * p.cfg.Arrivals)
		b.simSeconds += elapsed.Seconds()
		if !record(i, p) {
			continue
		}
		saving = append(saving, energySavingPct(p.res))
		if tr != nil {
			want, err := core.RunExperimentContext(ctx, p.eval, r.em, p.bag, p.cfg)
			if err != nil || !reflect.DeepEqual(want, p.res) {
				b.opFailed(i, "re-enacted experiment differs from RunExperimentContext (err %v)", err)
			}
		}
	}
	b.allocBytes = memStats().TotalAlloc - alloc0
	b.recordMeter()
	b.measureHeap()
	if b.tracedOps > 0 {
		b.layer["characterize.alloc_mb"] = float64(r.charAlloc) / 1e6 / float64(b.tracedOps)
		b.layer["ann.train_alloc_mb"] = float64(r.trainAlloc) / 1e6 / float64(b.tracedOps)
	}
	b.note("energy_saving_pct: %.6g (proposed vs base total energy, Figure 6; mean over %d measured ops)", mean(saving), len(saving))

	// The op must agree with the facade's memoized path for the same seed.
	sys, err := hetsched.New(hetsched.Options{Spec: hetsched.MustParsePredictorSpec("ann"), Workers: poolWorkers})
	if err != nil {
		return fmt.Errorf("facade check: %w", err)
	}
	want, err := sys.Experiment(experimentConfig(b.opSeed(0)))
	if err != nil {
		return fmt.Errorf("facade check: %w", err)
	}
	if !reflect.DeepEqual(want, warm) {
		b.fail("op 0 differs from hetsched.New + Experiment for the same seed")
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
