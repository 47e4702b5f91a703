// Command hmsim runs the paper's full evaluation: the four systems of
// Section V (base, optimal, energy-centric, proposed) over a uniform
// 5000-arrival workload on the Figure 1 quad-core machine, printing the
// Figure 6 and Figure 7 rows and the headline energy reduction.
//
// Usage:
//
//	hmsim [-arrivals 5000] [-util 0.9] [-seed 1] [-predictor ann|ensemble:table,markov,ann|...]
//	      [-j N] [-cache-dir auto] [-engine stream|replay]
//	      [-faults mttf=5e6,recover=1e5,noise=0.05,seed=1]
//	      [-trace file.json]
//	      [-cluster 8*quad;8*16x2] [-scorer hybrid] [-no-steal]
//
// -cluster switches to cluster mode: the workload is routed across the
// given multi-node topology by the two-level dispatcher (internal/cluster)
// and each node runs the proposed system; the report is the per-node
// routing table plus cluster totals. -timeline prints the merged
// cross-node schedule, -trace captures the dispatcher's route/steal audit.
//
// -faults injects a deterministic fault plan (transient/permanent core
// crashes, stuck reconfigurations, profiling-counter noise) into every
// simulated system; "off" (the default) is bit-identical to a build without
// the fault subsystem.
//
// -trace re-runs the proposed system with the decision-audit recorder
// attached and writes the event stream to the named file — Chrome
// trace-event JSON for a .json extension (open at ui.perfetto.dev),
// flat CSV otherwise. See EXPERIMENTS.md for the Perfetto recipe.
//
// Every error path exits non-zero so the command can be scripted (see
// cmd/hetschedbench and the Makefile targets).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"hetsched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmsim: ")
	if err := run(); err != nil {
		log.Fatal(err) // exit code 1
	}
}

func run() error {
	arrivals := flag.Int("arrivals", 5000, "number of benchmark arrivals (paper: 5000)")
	util := flag.Float64("util", 0.90, "offered load on the quad-core machine")
	seed := flag.Int64("seed", 1, "workload seed")
	spec := hetsched.DefaultPredictorSpec()
	flag.TextVar(&spec, "predictor", hetsched.DefaultPredictorSpec(),
		"best-core predictor: ann|oracle|linear|knn|stump|tree|table|markov|nn, or ensemble:kind[=weight],...")
	perApp := flag.Bool("perapp", false, "also print the proposed system's per-benchmark energy table")
	timeline := flag.Int("timeline", 0, "also print the first N proposed-system schedule events")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel workers for characterization and training")
	cacheDir := flag.String("cache-dir", "auto", "persistent characterization cache: auto|off|<dir>")
	var engine hetsched.Engine
	flag.TextVar(&engine, "engine", hetsched.EngineStream, "cache simulation engine for characterization: stream|replay")
	faultsFlag := flag.String("faults", "off", "fault-injection plan: off, or mttf=..,recover=..,permanent=..,stuck=..,noise=..,seed=..")
	traceFile := flag.String("trace", "", "write the proposed system's decision-audit trace to this file (.json = Chrome/Perfetto, else CSV)")
	clusterFlag := flag.String("cluster", "", "run in cluster mode over this topology (';'-joined node shapes with N* repetition, e.g. 8*quad;8*16x2)")
	var scorer hetsched.ScorerKind
	flag.TextVar(&scorer, "scorer", hetsched.ScoreHybrid, "cluster dispatcher scorer: hybrid|balance|energy|roundrobin")
	noSteal := flag.Bool("no-steal", false, "disable cross-node work stealing in cluster mode")
	var scenarioSpec hetsched.ScenarioSpec
	flag.TextVar(&scenarioSpec, "scenario", hetsched.ScenarioSpec{},
		"workload scenario (e.g. bursty:rate=1.2;slo=deadline:slack=1.5,classes=hi@0.2): runs the four systems over the scenario stream with deadline/SLO reporting")
	flag.Parse()

	dir, err := hetsched.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	faults, err := hetsched.ParseFaultPlan(*faultsFlag)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "characterizing suite and training %s predictor...\n", spec)
	sys, err := hetsched.New(hetsched.Options{Spec: spec, Workers: *jobs, CacheDir: dir, Engine: engine, Faults: faults})
	if err != nil {
		return err
	}
	if sys.Setup.EvalFromCache && sys.Setup.TrainFromCache {
		fmt.Fprintln(os.Stderr, "characterization served from cache (no kernel replay)")
	}

	cfg := hetsched.DefaultExperimentConfig()
	cfg.Arrivals = *arrivals
	cfg.Utilization = *util
	cfg.Seed = *seed

	if faults.Enabled() {
		fmt.Fprintf(os.Stderr, "injecting faults: %s\n", faults)
	}

	if *clusterFlag != "" {
		return runCluster(sys, *clusterFlag, scorer, *noSteal, cfg, *timeline, *traceFile)
	}
	if !scenarioSpec.IsZero() {
		return runScenario(sys, scenarioSpec, cfg, *timeline, *traceFile)
	}
	fmt.Fprintf(os.Stderr, "simulating 4 systems x %d arrivals at utilization %.2f...\n",
		cfg.Arrivals, cfg.Utilization)
	res, err := sys.Experiment(cfg)
	if err != nil {
		return err
	}
	fmt.Print(hetsched.FormatFigures(res))

	if *perApp || *timeline > 0 || *traceFile != "" {
		jobs, err := sys.Workload(cfg.Arrivals, cfg.Utilization, cfg.Seed)
		if err != nil {
			return err
		}
		simCfg := hetsched.SimConfig{RecordSchedule: *timeline > 0}
		var rec *hetsched.TraceRecorder
		if *traceFile != "" {
			rec = hetsched.NewTraceRecorder()
			simCfg.Trace = rec
		}
		m, err := sys.RunSystem("proposed", jobs, simCfg)
		if err != nil {
			return err
		}
		if *perApp {
			fmt.Println()
			fmt.Print(hetsched.FormatPerApp(sys, m))
		}
		if *timeline > 0 {
			fmt.Println()
			fmt.Print(hetsched.FormatSchedule(sys, m, *timeline))
		}
		if rec != nil {
			if err := hetsched.WriteTraceFile(*traceFile, rec.Events()); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", rec.Len(), *traceFile)
		}
	}
	return nil
}

// runScenario is hmsim's scenario mode: materialize the scenario's job
// stream once, arm the SLO-aware simulator features the spec asks for, and
// run the four compared systems over the identical workload, printing each
// system's metrics block (with deadline/SLO lines when the scenario sets
// deadlines). -timeline and -trace follow the proposed system's run.
func runScenario(sys *hetsched.System, sp hetsched.ScenarioSpec,
	cfg hetsched.ExperimentConfig, timeline int, traceFile string) error {
	jobs, err := sys.ScenarioWorkload(sp, cfg.Arrivals, cfg.Utilization, cfg.Seed)
	if err != nil {
		return err
	}
	var simCfg hetsched.SimConfig
	sp.ApplySim(&simCfg)
	simCfg.RecordSchedule = timeline > 0
	fmt.Fprintf(os.Stderr, "scenario %s: simulating 4 systems x %d arrivals...\n", sp, len(jobs))
	for _, name := range []string{"base", "optimal", "energy-centric", "proposed"} {
		run := simCfg
		var rec *hetsched.TraceRecorder
		if name == "proposed" && traceFile != "" {
			rec = hetsched.NewTraceRecorder()
			run.Trace = rec
		}
		m, err := sys.RunSystem(name, jobs, run)
		if err != nil {
			return err
		}
		fmt.Print(hetsched.FormatMetrics(m))
		if name == "proposed" && timeline > 0 {
			fmt.Println()
			fmt.Print(hetsched.FormatSchedule(sys, m, timeline))
		}
		if rec != nil {
			if err := hetsched.WriteTraceFile(traceFile, rec.Events()); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", rec.Len(), traceFile)
		}
	}
	return nil
}

// runCluster is hmsim's cluster mode: route the workload across the given
// topology with the two-level dispatcher, simulate every node, and print
// the per-node routing table (plus, on request, the merged timeline and
// the dispatcher's route/steal trace).
func runCluster(sys *hetsched.System, spec string, scorer hetsched.ScorerKind,
	noSteal bool, cfg hetsched.ExperimentConfig, timeline int, traceFile string) error {
	nodes, err := hetsched.ParseClusterSpec(spec)
	if err != nil {
		return fmt.Errorf("-cluster: %w", err)
	}
	jobs, err := sys.ClusterWorkload(nodes, nil, cfg.Arrivals, cfg.Utilization, cfg.Seed)
	if err != nil {
		return err
	}
	ccfg := hetsched.ClusterConfig{
		Nodes:           nodes,
		Scorer:          scorer,
		DisableStealing: noSteal,
		RecordSchedule:  timeline > 0,
	}
	var rec *hetsched.TraceRecorder
	if traceFile != "" {
		rec = hetsched.NewTraceRecorder()
		ccfg.Trace = rec
	}
	fmt.Fprintf(os.Stderr, "routing %d arrivals across %d nodes (scorer=%s)...\n",
		cfg.Arrivals, len(nodes), scorer)
	res, err := sys.RunCluster(ccfg, jobs)
	if err != nil {
		return err
	}
	fmt.Print(hetsched.FormatCluster(res))
	if timeline > 0 {
		fmt.Println()
		fmt.Print(hetsched.FormatClusterSchedule(sys, res, timeline))
	}
	if rec != nil {
		if err := hetsched.WriteTraceFile(traceFile, rec.Events()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", rec.Len(), traceFile)
	}
	return nil
}
