// Command hetschedd is the scheduling-as-a-service daemon: it characterizes
// the benchmark suite, trains the configured predictor once, and then serves
// scheduling requests over HTTP through a bounded queue and a fixed worker
// pool (one simulator per worker at a time; see internal/server).
//
// Endpoints (JSON; see DESIGN.md for schemas):
//
//	POST /v1/predict                 {"kernel": "tblook"}
//	GET  /v1/predictor
//	POST /v1/predictor               {"spec": "ensemble:table,markov,ann"}
//	POST /v1/schedule                {"system": "proposed", "arrivals": 500, ...}
//	POST /v1/schedule/batch          {"jobs": [{"kernel": "tblook"}, ...], ...}
//	POST /v1/tune                    {"kernel": "tblook", "size_kb": 8}
//	POST /v1/cluster/schedule        {"nodes": "8*quad;8*16x2", "arrivals": 5000, ...}
//	POST /v1/cluster/schedule/batch  {"nodes": "8*quad", "jobs": [...], ...}
//	GET  /v1/cluster/status
//	GET  /v1/designspace
//	GET  /healthz
//	GET  /metrics
//
// A second, internal-only debug listener serves /debug/pprof/* and
// /debug/vars, e.g.:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// Usage:
//
//	hetschedd [-addr :8080] [-debug-addr :6060] [-workers 4] [-queue 64]
//	          [-timeout 2m] [-max-arrivals 20000] [-predictor ann] [-seed 42]
//	          [-j N] [-cache-dir auto]
//	          [-faults mttf=5e6,recover=1e5,seed=1]
//	          [-cluster 4*quad] [-scorer hybrid]
//	          [-char-cache-entries 256] [-char-cache-ttl 15m]
//	          [-shed-highwater 0.75] [-shed-levels 8]
//
// -cluster and -scorer set the default topology and dispatcher scoring
// strategy for /v1/cluster requests that omit their own.
//
// -predictor takes a single kind or an ensemble spec
// ("ensemble:table,markov,ann"); POST /v1/predictor hot-swaps the active
// predictor without a restart (in-flight runs finish on the predictor they
// started with; a rejected spec leaves the old one live).
//
// The batch endpoints characterize kernel variants on demand through a
// serving tier — a bounded in-memory LRU (-char-cache-entries,
// -char-cache-ttl) with in-flight coalescing in front of the disk cache —
// and -shed-highwater/-shed-levels tune the priority-aware admission
// control that sheds low-priority work once the queue passes the
// high-water mark.
//
// -faults sets the daemon-wide default fault-injection plan: schedule
// requests inherit it unless they carry their own "faults" object, and
// /metrics reports the cumulative fault counters.
//
// Cold start characterizes the suite across -j workers; with -cache-dir
// auto (the default) the characterization persists under the user cache
// directory, so every restart after the first skips kernel replay and the
// daemon is serving in roughly the time ANN training takes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hetsched"
	"hetsched/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetschedd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "API listen address")
	debugAddr := flag.String("debug-addr", ":6060", "pprof/expvar listen address (empty disables)")
	workers := flag.Int("workers", 4, "simulation worker pool size")
	queue := flag.Int("queue", 64, "bounded job-queue depth (full queue answers 429)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request service timeout, queue wait included")
	maxArrivals := flag.Int("max-arrivals", 20000, "largest workload one schedule request may ask for")
	spec := hetsched.DefaultPredictorSpec()
	flag.TextVar(&spec, "predictor", hetsched.DefaultPredictorSpec(),
		"best-size predictor: ann|oracle|linear|knn|stump|tree|table|markov|nn, or ensemble:kind[=weight],...")
	seed := flag.Int64("seed", 42, "predictor training seed")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel workers for characterization and training")
	cacheDir := flag.String("cache-dir", "auto", "persistent characterization cache: auto|off|<dir>")
	faultsFlag := flag.String("faults", "off", "default fault-injection plan for schedule requests: off, or mttf=..,recover=..,permanent=..,stuck=..,noise=..,seed=..")
	clusterFlag := flag.String("cluster", "4*quad", "default cluster topology for /v1/cluster requests: ';'-joined node shapes with N* repetition")
	var scorer hetsched.ScorerKind
	flag.TextVar(&scorer, "scorer", hetsched.ScoreHybrid, "default cluster dispatcher scorer: hybrid|balance|energy|roundrobin")
	charEntries := flag.Int("char-cache-entries", 256, "in-memory characterization LRU size for batch requests (negative disables)")
	charTTL := flag.Duration("char-cache-ttl", 15*time.Minute, "in-memory characterization entry TTL (negative never expires)")
	shedHighWater := flag.Float64("shed-highwater", 0.75, "queue-depth fraction past which low-priority requests are shed (outside (0,1) disables)")
	shedLevels := flag.Int("shed-levels", 8, "admission-bar scale: priority needed to survive a full queue at maximum cost")
	flag.Parse()

	dir, err := hetsched.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	faults, err := hetsched.ParseFaultPlan(*faultsFlag)
	if err != nil {
		return err
	}
	clusterNodes, err := hetsched.ParseClusterSpec(*clusterFlag)
	if err != nil {
		return fmt.Errorf("-cluster: %w", err)
	}

	fmt.Fprintf(os.Stderr, "hetschedd: characterizing suite and training %s predictor...\n", spec)
	start := time.Now()
	sys, err := hetsched.New(hetsched.Options{Spec: spec, Seed: *seed, Workers: *jobs, CacheDir: dir, Faults: faults})
	if err != nil {
		return err
	}
	if faults.Enabled() {
		fmt.Fprintf(os.Stderr, "hetschedd: default fault plan: %s\n", faults)
	}
	fmt.Fprintf(os.Stderr, "hetschedd: setup done in %s (characterization cache: eval=%v train=%v)\n",
		time.Since(start).Round(time.Millisecond), sys.Setup.EvalFromCache, sys.Setup.TrainFromCache)

	srv, err := server.New(sys, server.Config{
		Addr:               *addr,
		DebugAddr:          *debugAddr,
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		MaxArrivals:        *maxArrivals,
		ClusterNodes:       clusterNodes,
		ClusterScorer:      scorer,
		CacheDir:           dir,
		CharCacheEntries:   *charEntries,
		CharCacheTTL:       *charTTL,
		AdmissionHighWater: *shedHighWater,
		ShedLevels:         *shedLevels,
	})
	if err != nil {
		return err
	}
	srv.Metrics().PublishExpvar()

	// SIGINT/SIGTERM drain gracefully: stop accepting, finish queued and
	// in-flight jobs, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "hetschedd: signal received, draining in-flight jobs...")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "hetschedd: shutdown: %v\n", err)
		}
	}()

	return srv.ListenAndServe()
}
