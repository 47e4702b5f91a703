// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks every
// operation's output and prints the workload's metrics; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
// that records a span around every call into a layer and reports the
// per-layer metrics instead. NOTES.md describes the workloads and why each
// was chosen.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

const (
	// poolWorkers pins every pool the benchmark can size (characterization
	// and ANN-training workers, cluster node-simulation workers, the
	// server's worker pool) and GOMAXPROCS, so a machine with more cores
	// still measures the same configuration.
	poolWorkers = 2
	// setupRounds is how often an untraced run sets up; setup_s is the
	// median round. A traced run sets up once.
	setupRounds = 5
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(ctx context.Context, b *bench) error
}{
	{"reproduce", runReproduce},
	{"serve", runServe},
	{"batch-skew", runBatchSkew},
	{"cluster", runCluster},
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(poolWorkers)
	b := newBench(opts, os.Stdout)
	fmt.Fprintf(b.out, "config: workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d pool_workers=%d %s\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, runtime.GOMAXPROCS(0), poolWorkers, runtime.Version())
	for _, w := range workloads {
		if w.name == opts.workload {
			if err := w.run(context.Background(), b); err != nil {
				b.fail("%v", err)
			}
		}
	}
	os.Exit(b.report())
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed every input of the run derives from")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w.name == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if !(o.seconds > 0 && o.seconds <= 120) {
		return o, fmt.Errorf("--seconds %v out of range (0, 120]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d not in {0, 1}", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}
