// Command hmsweep sweeps the scheduling experiment across offered load,
// arrival models and systems, emitting one CSV row per grid cell — the data
// behind load-sensitivity plots.
//
// Usage:
//
//	hmsweep [-arrivals 1500] [-utils 0.5,0.75,0.9] [-models uniform,poisson,bursty]
//	        [-systems base,optimal,sat,energy-centric,proposed]
//	        [-predictor ann] [-engine stream] [-seed 1] [-j N] [-cache-dir auto]
//	        [-faults mttf=5e6,recover=1e5,seed=1] [-trace cell.json]
//	        [-scenario "poisson:rate=0.9,jobs=5000;slo=deadline:slack=1.5"] > sweep.csv
//
// -scenario replaces the arrival-model dimension with a workload scenario:
// the spec's source generates every cell's jobs, the SLO layer (classes,
// deadlines) arms the deadline-aware scheduler, and five deadline/SLO
// columns are appended to the CSV. Without -scenario the CSV is emitted
// byte-for-byte as before.
//
// -faults injects one deterministic fault plan into every grid cell (the
// data behind degradation-versus-load plots); faulted sweeps append fault
// columns to the CSV, while the default "off" emits today's CSV
// byte-for-byte.
//
// -trace re-runs the sweep's first grid cell (first utilization, first
// model, first system) with the decision-audit recorder attached and writes
// the event stream to the named file (.json = Chrome/Perfetto, else CSV).
// The re-run reuses the cell's own deterministic workload seed, so the
// trace explains exactly the first CSV row; the parallel sweep itself runs
// untraced, keeping its output worker-count-invariant.
//
// Grid cells simulate in parallel across -j workers (default: all CPUs);
// the CSV is point-for-point identical for any worker count. With
// -cache-dir auto the characterization DB persists under the user cache
// directory, so a second run skips kernel replay entirely. If a grid point
// errors the completed rows are still flushed to stdout before the
// non-zero exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hetsched"
	"hetsched/internal/core"
	"hetsched/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmsweep: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	arrivals := flag.Int("arrivals", 1500, "arrivals per experiment")
	utilsFlag := flag.String("utils", "0.5,0.75,0.9", "comma-separated utilizations")
	modelsFlag := flag.String("models", "uniform", "comma-separated arrival models (uniform|poisson|bursty)")
	systemsFlag := flag.String("systems", "base,optimal,energy-centric,proposed", "comma-separated systems")
	spec := hetsched.DefaultPredictorSpec()
	flag.TextVar(&spec, "predictor", hetsched.DefaultPredictorSpec(),
		"predictor: ann|oracle|linear|knn|stump|tree|table|markov|nn, or ensemble:kind[=weight],...")
	var engine hetsched.Engine
	flag.TextVar(&engine, "engine", hetsched.EngineStream, "cache simulation engine: stream|replay")
	seed := flag.Int64("seed", 1, "workload seed")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel workers for setup and grid simulation")
	cacheDir := flag.String("cache-dir", "auto", "persistent characterization cache: auto|off|<dir>")
	faultsFlag := flag.String("faults", "off", "fault-injection plan for every grid cell: off, or mttf=..,recover=..,permanent=..,stuck=..,noise=..,seed=..")
	traceFile := flag.String("trace", "", "re-run the first grid cell traced and write the events to this file (.json = Chrome/Perfetto, else CSV)")
	var scenarioSpec hetsched.ScenarioSpec
	flag.TextVar(&scenarioSpec, "scenario", hetsched.ScenarioSpec{},
		"workload scenario replacing -models (e.g. poisson:rate=0.9,jobs=5000;slo=deadline:slack=1.5); appends deadline/SLO CSV columns")
	flag.Parse()

	utils, err := parseFloats(*utilsFlag)
	if err != nil {
		return err
	}
	models, err := parseModels(*modelsFlag)
	if err != nil {
		return err
	}
	dir, err := hetsched.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	faults, err := hetsched.ParseFaultPlan(*faultsFlag)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "setting up (%s predictor, %s engine, %d workers)...\n", spec, engine, *jobs)
	before := hetsched.ReplayCount()
	sys, err := hetsched.New(hetsched.Options{Spec: spec, Workers: *jobs, CacheDir: dir, Engine: engine})
	if err != nil {
		return err
	}
	if sys.Setup.EvalFromCache && sys.Setup.TrainFromCache {
		fmt.Fprintln(os.Stderr, "characterization served from cache (no kernel replay)")
	} else if variants := len(sys.Eval.Records) + len(sys.Train.Records); variants > 0 {
		traversals := hetsched.ReplayCount() - before
		fmt.Fprintf(os.Stderr, "engine %s: %d trace traversals for %d kernel variants (%.1f per kernel)\n",
			engine, traversals, variants, float64(traversals)/float64(variants))
	}

	if faults.Enabled() {
		fmt.Fprintf(os.Stderr, "injecting faults into every grid cell: %s\n", faults)
	}
	swCfg := sweep.Config{
		Arrivals:     *arrivals,
		Utilizations: utils,
		Models:       models,
		Systems:      strings.Split(*systemsFlag, ","),
		Seed:         *seed,
		Workers:      *jobs,
	}
	swCfg.Sim.Faults = faults
	if !scenarioSpec.IsZero() {
		fmt.Fprintf(os.Stderr, "scenario sweep: %s\n", scenarioSpec)
		swCfg.Scenario = &scenarioSpec
	}
	points, err := sweep.Run(sys.Eval, sys.Energy, sys.Pred, swCfg)
	// A grid-point failure must not discard finished work: flush every
	// completed row before reporting the error.
	if werr := sweep.WriteCSV(os.Stdout, points); werr != nil {
		return werr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "partial results: %d completed grid points written\n", len(points))
		return err
	}
	if *traceFile != "" {
		if err := traceFirstCell(sys, swCfg, *traceFile); err != nil {
			return err
		}
	}
	return nil
}

// traceFirstCell re-runs the sweep's first (utilization, model, system)
// cell as a 1x1x1 sub-grid with the decision-audit recorder attached. The
// sub-grid derives the identical cell seed (indices 0,0), so the traced run
// is the first CSV row, event for event.
func traceFirstCell(sys *hetsched.System, swCfg sweep.Config, path string) error {
	rec := hetsched.NewTraceRecorder()
	cellCfg := swCfg
	cellCfg.Utilizations = swCfg.Utilizations[:1]
	cellCfg.Models = swCfg.Models[:1]
	cellCfg.Systems = swCfg.Systems[:1]
	cellCfg.Workers = 1
	cellCfg.Sim.Trace = rec
	if _, err := sweep.Run(sys.Eval, sys.Energy, sys.Pred, cellCfg); err != nil {
		return err
	}
	if err := hetsched.WriteTraceFile(path, rec.Events()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events for cell (util=%v, model=%s, system=%s) to %s\n",
		rec.Len(), cellCfg.Utilizations[0], cellCfg.Models[0], cellCfg.Systems[0], path)
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad utilization %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseModels(s string) ([]core.ArrivalModel, error) {
	var out []core.ArrivalModel
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "uniform":
			out = append(out, core.ArrivalUniform)
		case "poisson":
			out = append(out, core.ArrivalPoisson)
		case "bursty":
			out = append(out, core.ArrivalBursty)
		default:
			return nil, fmt.Errorf("unknown arrival model %q", part)
		}
	}
	return out, nil
}
