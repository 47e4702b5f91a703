// Command cachetune explores the cache design space for one benchmark: it
// executes the kernel, scores every Table 1 configuration under the
// Figure 4 energy model — streaming accesses straight into the one-pass
// simulator — prints the full sweep, and then walks the Figure 5 tuning
// heuristic on each core size to show how few configurations the
// heuristic needs.
//
// Usage:
//
//	cachetune [-kernel tblook] [-scale 1] [-seed 1] [-space]
//	          [-trace walk.json] [-predictor ensemble:table,markov,ann]
//	cachetune -fromtrace a2time.trace
//	cachetune -list
//
// -trace records the heuristic's walk as decision-audit tune events — one
// per configuration tried, cycle-stamped with the step index, marked
// accepted when it improved on the best seen for its core size — and writes
// them to the named file (.json = Chrome/Perfetto, else CSV).
//
// -predictor additionally characterizes the suite, builds the named
// predictor (any -predictor spec the other commands accept) and prints its
// best-size call for the kernel next to the oracle: predicted size, energy
// regret, and — for ensembles — the per-member ballots.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"hetsched"
	"hetsched/internal/cache"
	"hetsched/internal/characterize"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/tuner"
	"hetsched/internal/vm"
)

// maxTraceAddr bounds the addresses -fromtrace accepts: the stream sink's
// footprint bitset spends one bit per 16 bytes up to the highest address,
// so 4 GiB of address space costs it 32 MB. The VM's traces stay far below.
const maxTraceAddr = 1 << 32

// sweepTrace scores a saved trace across the full design space in one pass
// through the trace for all 18 configurations.
func sweepTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := vm.LoadTrace(f)
	if err != nil {
		return err
	}
	if tr.Len() == 0 {
		return fmt.Errorf("trace %s has no accesses", path)
	}
	ms, err := cache.NewMultiSim(cache.DesignSpace())
	if err != nil {
		return err
	}
	ss := vm.NewStreamSink(ms, 0)
	for _, a := range tr.Accesses {
		if a.Addr >= maxTraceAddr {
			return fmt.Errorf("trace %s: address %#x is past the %d GiB -fromtrace simulates", path, a.Addr, maxTraceAddr>>30)
		}
		ss.Access(a.Addr, a.Write)
	}
	ss.Flush()
	em := energy.NewDefault()
	fmt.Printf("trace %s: %d accesses, footprint %.1f KB\n\n",
		path, tr.Len(), float64(ss.Footprint(64)*64)/1024)
	fmt.Printf("%-12s %10s %10s %14s\n", "config", "misses", "missrate", "total energy")
	for _, s := range ms.Stats() {
		// Cycle baseline is unknown for a bare trace; charge one cycle per
		// access plus miss stalls, which preserves the ranking.
		cycles := em.ExecCycles(uint64(tr.Len()), s.Config, s.Misses)
		e := em.Total(s.Config, s.Hits, s.Misses, cycles)
		fmt.Printf("%-12s %10d %9.2f%% %12.0f nJ\n",
			s.Config, s.Misses, 100*float64(s.Misses)/float64(tr.Len()), e.Total)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cachetune: ")
	if err := run(); err != nil {
		log.Fatal(err) // exit code 1 on every error path, so scripts can rely on $?
	}
}

func run() error {
	kernel := flag.String("kernel", "tblook", "benchmark to explore")
	scale := flag.Int("scale", 1, "dataset scale")
	seed := flag.Int64("seed", 1, "data seed")
	list := flag.Bool("list", false, "list available kernels and exit")
	space := flag.Bool("space", false, "print the Table 1 design space and exit")
	fromTrace := flag.String("fromtrace", "", "sweep a saved trace file (see tracegen) instead of a kernel")
	traceFile := flag.String("trace", "", "write the tuning walk as decision-audit tune events to this file (.json = Chrome/Perfetto, else CSV)")
	predictorFlag := flag.String("predictor", "", "also report this predictor's best-size call for the kernel (any kind or ensemble:kind[=weight],...; empty skips)")
	flag.Parse()

	if *space {
		fmt.Print(hetsched.FormatDesignSpace())
		return nil
	}
	if *list {
		for _, k := range eembc.AllKernels() {
			fmt.Printf("%-8s %s\n", k.Name, k.Description)
		}
		return nil
	}
	if *fromTrace != "" {
		return sweepTrace(*fromTrace)
	}

	params := eembc.Params{Scale: *scale, Iterations: 4, Seed: *seed}
	db, err := characterize.Characterize(
		[]characterize.Variant{{Kernel: *kernel, Params: params}},
		energy.NewDefault(),
	)
	if err != nil {
		return err
	}
	rec := &db.Records[0]

	fmt.Printf("kernel %s (scale %d, seed %d): %d accesses, %d base cycles\n\n",
		rec.Kernel, params.Scale, params.Seed, rec.Accesses, rec.BaseCycles)

	// Full design-space sweep, sorted by total energy.
	rows := append([]characterize.ConfigResult(nil), rec.Configs...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Energy.Total < rows[j].Energy.Total })
	fmt.Printf("%-12s %10s %10s %12s %14s\n", "config", "misses", "missrate", "cycles", "total energy")
	for _, cr := range rows {
		fmt.Printf("%-12s %10d %9.2f%% %12d %12.0f nJ\n",
			cr.Config, cr.Misses,
			100*float64(cr.Misses)/float64(rec.Accesses),
			cr.Cycles, cr.Energy.Total)
	}
	best := rec.BestConfig()
	fmt.Printf("\noracle best configuration: %s (%.0f nJ)\n\n", best.Config, best.Energy.Total)

	// Figure 5 heuristic on each core size. One size failing must not
	// discard the others' results: finish the walk, then report the first
	// error through the non-zero exit.
	fmt.Println("tuning heuristic (Figure 5), one execution per step:")
	var audit *hetsched.TraceRecorder
	if *traceFile != "" {
		audit = hetsched.NewTraceRecorder()
		audit.SetSystem("cachetune")
	}
	var firstErr error
	for _, size := range cache.Sizes() {
		if err := tuneSize(rec, size, audit); err != nil {
			fmt.Printf("  %dKB core: %v\n", size, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if audit != nil {
		if err := hetsched.WriteTraceFile(*traceFile, audit.Events()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d tuning-walk trace events to %s\n", audit.Len(), *traceFile)
	}
	if *predictorFlag != "" {
		if err := reportPrediction(*predictorFlag, *kernel); err != nil {
			return err
		}
	}
	return firstErr
}

// reportPrediction builds the named predictor over the canonical suite
// characterization and prints its best-size call for the kernel: the
// prediction, the oracle, the energy regret of running at the predicted
// size, and the per-member ballots when the predictor exposes them.
func reportPrediction(specStr, kernel string) error {
	spec, err := hetsched.ParsePredictorSpec(specStr)
	if err != nil {
		return err
	}
	dir, err := hetsched.ResolveCacheDir("auto")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "characterizing suite and building %s predictor...\n", spec)
	sys, err := hetsched.New(hetsched.Options{Spec: spec, CacheDir: dir})
	if err != nil {
		return err
	}
	d, err := sys.PredictBestSizeDetail(kernel)
	if err != nil {
		return err
	}
	verdict := "miss"
	if d.PredictedKB == d.OracleKB {
		verdict = "match"
	}
	fmt.Printf("\npredictor %s: %dKB (oracle %dKB, %s, regret %.0f nJ)\n",
		spec, d.PredictedKB, d.OracleKB, verdict, d.RegretNJ)
	for _, v := range d.Votes {
		fmt.Printf("  member %-8s -> %3dKB  weight %.3f  confidence %.2f\n",
			v.Name, v.SizeKB, v.Weight, v.Confidence)
	}
	return nil
}

// tuneSize walks the heuristic for one core size and prints its row. With a
// non-nil audit recorder it records one tune event per configuration tried:
// the step index stands in for the cycle stamp (the walk has no simulated
// clock), and a step is accepted when it improved on the size's best.
func tuneSize(rec *characterize.Record, size int, audit *hetsched.TraceRecorder) error {
	tn := tuner.MustNew(size)
	step := 0
	bestE := 0.0
	err := tuner.Walk(tn, func(cfg cache.Config) (float64, error) {
		cr, err := rec.Result(cfg)
		if err != nil {
			return 0, err
		}
		if audit != nil {
			improved := step == 0 || cr.Energy.Total < bestE
			if improved {
				bestE = cr.Energy.Total
			}
			audit.Record(hetsched.TraceEvent{
				Kind:     hetsched.TraceKindTune,
				Cycle:    uint64(step),
				Job:      -1,
				App:      -1,
				Core:     -1,
				Config:   cfg.String(),
				SizeKB:   size,
				EnergyNJ: cr.Energy.Total,
				Accepted: improved,
				Detail:   rec.Kernel,
			})
			step++
		}
		return cr.Energy.Total, nil
	})
	if err != nil {
		return err
	}
	bestCfg, bestE, _ := tn.Best()
	oracle, err := rec.BestConfigForSize(size)
	if err != nil {
		return err
	}
	gap := 100 * (bestE/oracle.Energy.Total - 1)
	fmt.Printf("  %dKB core: explored %d of %d configs -> %s (%.0f nJ, %.1f%% above per-size oracle %s)\n",
		size, len(tn.Explored()), len(cache.ConfigsForSize(size)),
		bestCfg, bestE, gap, oracle.Config)
	return nil
}
