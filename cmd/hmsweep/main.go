// Command hmsweep sweeps the scheduling experiment across offered load,
// arrival models and systems, emitting one CSV row per grid cell — the data
// behind load-sensitivity plots.
//
// Usage:
//
//	hmsweep [-arrivals 1500] [-utils 0.5,0.75,0.9] [-models uniform,poisson,bursty,diurnal,closed]
//	        [-systems base,optimal,sat,energy-centric,proposed]
//	        [-predictor ann] [-seed 1] [-j N] [-cache-dir auto]
//	        [-faults mttf=5e6,recover=1e5,seed=1] [-trace cell.json]
//	        [-scenario "poisson:rate=0.9,jobs=5000;slo=deadline:slack=1.5"] > sweep.csv
//
// -models names the arrival processes to sweep; each is a scenario source
// (internal/scenario) at its default parameters, and its name fills the
// arrival_model column. The default uniform is the paper's stream.
//
// -scenario replaces the arrival-model axis with one full workload
// scenario: the spec's source generates every cell's jobs, its jobs= and
// rate= pin the arrival count and the single utilization, and an SLO
// section (classes, deadlines) arms the deadline-aware scheduler and
// appends five deadline/SLO columns to the CSV. Without an SLO section the
// CSV keeps the default columns.
//
// -faults injects one deterministic fault plan into every grid cell (the
// data behind degradation-versus-load plots); faulted sweeps append fault
// columns to the CSV, while the default "off" emits today's CSV
// byte-for-byte.
//
// -trace re-runs the sweep's first grid cell (first utilization, first
// scenario, first system) with the decision-audit recorder attached and writes
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
	"hetsched/internal/scenario"
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
	modelsFlag := flag.String("models", "uniform", "comma-separated arrival models (uniform|poisson|bursty|diurnal|closed)")
	systemsFlag := flag.String("systems", "base,optimal,energy-centric,proposed", "comma-separated systems")
	spec := hetsched.DefaultPredictorSpec()
	flag.TextVar(&spec, "predictor", hetsched.DefaultPredictorSpec(),
		"predictor: ann|oracle|linear|knn|stump|tree|table|markov|nn, or ensemble:kind[=weight],...")
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
	scenarios, err := parseModels(*modelsFlag)
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

	fmt.Fprintf(os.Stderr, "setting up (%s predictor, %d workers)...\n", spec, *jobs)
	sys, err := hetsched.New(hetsched.Options{Spec: spec, Workers: *jobs, CacheDir: dir})
	if err != nil {
		return err
	}
	if sys.Setup.EvalFromCache && sys.Setup.TrainFromCache {
		fmt.Fprintln(os.Stderr, "characterization served from cache (no kernel replay)")
	}

	if faults.Enabled() {
		fmt.Fprintf(os.Stderr, "injecting faults into every grid cell: %s\n", faults)
	}
	swCfg := sweep.Config{
		Arrivals:     *arrivals,
		Utilizations: utils,
		Scenarios:    scenarios,
		Systems:      strings.Split(*systemsFlag, ","),
		Seed:         *seed,
		Workers:      *jobs,
	}
	swCfg.Sim.Faults = faults
	if !scenarioSpec.IsZero() {
		fmt.Fprintf(os.Stderr, "scenario sweep: %s\n", scenarioSpec)
		swCfg.Scenarios = []scenario.Spec{scenarioSpec}
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

// traceFirstCell re-runs the sweep's first (utilization, scenario, system)
// cell as a 1x1x1 sub-grid with the decision-audit recorder attached. The
// sub-grid derives the identical cell seed (indices 0,0), so the traced run
// is the first CSV row, event for event.
func traceFirstCell(sys *hetsched.System, swCfg sweep.Config, path string) error {
	rec := hetsched.NewTraceRecorder()
	cellCfg := swCfg
	cellCfg.Utilizations = swCfg.Utilizations[:1]
	cellCfg.Scenarios = swCfg.Scenarios[:1]
	cellCfg.Systems = swCfg.Systems[:1]
	cellCfg.Workers = 1
	cellCfg.Sim.Trace = rec
	if _, err := sweep.Run(sys.Eval, sys.Energy, sys.Pred, cellCfg); err != nil {
		return err
	}
	if err := hetsched.WriteTraceFile(path, rec.Events()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events for cell (util=%v, scenario=%s, system=%s) to %s\n",
		rec.Len(), cellCfg.Utilizations[0], cellCfg.Scenarios[0], cellCfg.Systems[0], path)
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

// parseModels parses the -models list: each name is a bare scenario
// source.
func parseModels(s string) ([]scenario.Spec, error) {
	var out []scenario.Spec
	for _, part := range strings.Split(s, ",") {
		sp, err := scenario.Parse(strings.TrimSpace(part))
		if err != nil || sp.IsZero() || sp.String() != sp.Source {
			return nil, fmt.Errorf("unknown arrival model %q", part)
		}
		out = append(out, sp)
	}
	return out, nil
}
