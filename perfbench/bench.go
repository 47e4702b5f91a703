package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/core"
)

// metricDef is one reported metric. The two tables mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer metrics are per traced op unless the name says otherwise; a
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"characterize.ms", "ms"},
	{"characterize.alloc_mb", "MB"},
	{"characterize.tier_lookups", "count"},
	{"characterize.tier_computed", "count"},
	{"characterize.tier_hit_ratio", "ratio"},
	{"characterize.tier_ms", "ms"},
	{"ann.train_ms", "ms"},
	{"ann.train_alloc_mb", "MB"},
	{"ann.predict_calls", "count"},
	{"ann.predict_us", "us"},
	{"predict.calls", "count"},
	{"predict.us", "us"},
	{"core.workload_ms", "ms"},
	{"core.sim_ms.base", "ms"},
	{"core.sim_ms.optimal", "ms"},
	{"core.sim_ms.energy-centric", "ms"},
	{"core.sim_ms.proposed", "ms"},
	{"core.sim_ns_per_job", "ns"},
	{"core.allocs_per_job", "count"},
	{"cluster.run_ms", "ms"},
	{"cluster.node_sim_ms", "ms"},
	{"cluster.node_sim_max_ms", "ms"},
	{"cluster.route_ms", "ms"},
	{"cluster.route_share", "ratio"},
	{"cluster.route_allocs_per_job", "count"},
	{"cluster.steals", "count"},
	{"server.handler_ms", "ms"},
	{"server.lib_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.resp_kb", "KB"},
	{"server.queue_wait_p95_ms", "ms"},
	{"server.rejected", "count"},
	{"loadgen.lag_p90_ms", "ms"},
	{"bench.op_ms", "ms"},
	{"bench.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// simTotals accumulates the simulations a traced run times one by one.
type simTotals struct {
	jobs    int
	elapsed time.Duration
	mallocs uint64
}

// bench is one run's shared state: the op sequence, what the workload
// measured, and the output checks.
type bench struct {
	opts  options
	out   io.Writer
	tr    *tracer    // nil unless --trace 1
	meter *predMeter // the workload's predictor meter (traced runs)
	dig   *digest

	setupS      []float64 // one per set-up round
	plainMs     []float64 // latencies of ops measured without spans
	tracedMs    []float64 // latencies of ops measured with spans
	lagMs       []float64 // open-loop send lateness
	simJobs     float64   // simulated jobs completed by closed-loop ops
	simSeconds  float64   // host seconds those ops took
	allocBytes  uint64    // TotalAlloc over the measured phase
	measuredOps int
	heapLiveMB  float64
	tracedOps   int                // ops measured with spans
	sims        simTotals          // traced runs: individually timed simulations
	layer       map[string]float64 // workload-specific per-layer values
	notes       []string           // extra summary lines

	respBytes atomic.Int64 // traced HTTP ops' response bytes

	mu        sync.Mutex
	attempted int
	failed    int
	broken    int // failed checks that span the run
	failures  []string
}

func newBench(opts options, out io.Writer) *bench {
	b := &bench{opts: opts, out: out, layer: map[string]float64{}}
	if opts.trace {
		b.tr = newTracer()
	}
	return b
}

// opSeed derives op i's seed from the run's seed, so one --seed always
// issues the identical op sequence.
func (b *bench) opSeed(i int) int64 {
	return int64(splitmix64(splitmix64(uint64(b.opts.seed))+uint64(i))>>2) + 1
}

func (b *bench) rounds() int {
	if b.tr != nil {
		return 1
	}
	return setupRounds
}

func (b *bench) duration() time.Duration {
	return time.Duration(b.opts.seconds * float64(time.Second))
}

// opTracer returns the tracer measured op i records into; nil means no
// spans. A traced run alternates, so its plain ops give the comparison for
// the tracing overhead.
func (b *bench) opTracer(i int) *tracer {
	if i%2 == 1 {
		return b.tr
	}
	return nil
}

// coldStart collects everything garbage, clears sync.Pool caches and
// returns freed memory to the OS, so every set-up round starts from the
// same cold heap.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// allocDuring runs fn and, when tr is set, returns the bytes it allocated.
func allocDuring(tr *tracer, fn func()) uint64 {
	if tr == nil {
		fn()
		return 0
	}
	before := memStats().TotalAlloc
	fn()
	return memStats().TotalAlloc - before
}

// simulate runs one simulation; on a traced op it is a span of the given
// name and adds to the per-job simulator figures.
func (b *bench) simulate(tr *tracer, name string, parent, op, jobs int, run func(span int) (core.Metrics, error)) (core.Metrics, error) {
	if tr == nil {
		return run(-1)
	}
	m0 := memStats().Mallocs
	sp := tr.begin(name, parent, op)
	t0 := time.Now()
	m, err := run(sp)
	elapsed := time.Since(t0)
	tr.end(sp)
	b.sims.jobs += jobs
	b.sims.elapsed += elapsed
	b.sims.mallocs += memStats().Mallocs - m0
	return m, err
}

// measureHeap records the live heap. The second collection also empties
// the sync.Pool victim caches the first one leaves behind.
// recordMeter stores the predictor meter's calls and time per traced op;
// workloads call it when the measured phase ends, before any replay.
func (b *bench) recordMeter() {
	if b.tr != nil && b.tracedOps > 0 {
		b.layer[b.meter.callsMetric] = float64(b.meter.calls.Load()) / float64(b.tracedOps)
		b.layer[b.meter.timeMetric] = float64(b.meter.ns.Load()) / 1e3 / float64(b.tracedOps)
	}
}

func (b *bench) measureHeap() {
	runtime.GC()
	runtime.GC()
	b.heapLiveMB = float64(memStats().HeapAlloc) / 1e6
}

func (b *bench) recordOp(d time.Duration, traced bool) {
	if traced {
		b.tracedMs = append(b.tracedMs, ms(d))
		b.tracedOps++
	} else {
		b.plainMs = append(b.plainMs, ms(d))
	}
}

func (b *bench) attempt() {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
}

// opFailed counts a failed op: an error, a non-200 status or a failed
// output check.
func (b *bench) opFailed(op int, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// fail records a failed check that is not one op's: set-up, digest,
// replays.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.broken++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":         median(b.setupS),
		"op_p50_ms":       median(b.plainMs),
		"jobs_per_s":      b.simJobs / b.simSeconds,
		"alloc_mb_per_op": float64(b.allocBytes) / 1e6 / float64(b.measuredOps),
		"heap_live_mb":    b.heapLiveMB,
	}
}

// layerValues derives the per-layer metrics: span aggregates first, then
// whatever the workload measured itself.
func (b *bench) layerValues(tot map[string]spanTotal) map[string]float64 {
	v := map[string]float64{}
	perOp := func(name string) float64 {
		if b.tracedOps == 0 {
			return 0
		}
		return ms(tot[name].total) / float64(b.tracedOps)
	}
	mean := func(name string) float64 {
		if t := tot[name]; t.count > 0 {
			return ms(t.total) / float64(t.count)
		}
		return 0
	}
	if t := tot["op"]; t.count > 0 {
		v["bench.op_ms"] = mean("op")
		v["bench.unattributed_pct"] = 100 * float64(t.self) / float64(t.total)
	}
	if len(b.tracedMs) > 0 && len(b.plainMs) > 0 {
		v["bench.trace_overhead_pct"] = 100 * (median(b.tracedMs)/median(b.plainMs) - 1)
	}
	v["characterize.ms"] = perOp("characterize")
	v["characterize.tier_ms"] = perOp("characterize.tier")
	v["ann.train_ms"] = perOp("ann.train")
	v["core.workload_ms"] = perOp("core.workload")
	for _, s := range []string{"base", "optimal", "energy-centric", "proposed"} {
		v["core.sim_ms."+s] = perOp("core.sim." + s)
	}
	if b.sims.jobs > 0 {
		v["core.sim_ns_per_job"] = float64(b.sims.elapsed) / float64(b.sims.jobs)
		v["core.allocs_per_job"] = float64(b.sims.mallocs) / float64(b.sims.jobs)
	}
	if tot["server.handler"].count > 0 {
		v["server.handler_ms"] = mean("server.handler")
		v["server.lib_ms"] = mean("server.lib")
		v["server.self_ms"] = v["server.handler_ms"] - v["server.lib_ms"]
		v["server.resp_kb"] = float64(b.respBytes.Load()) / 1024 / float64(tot["server.handler"].count)
	}
	if len(b.lagMs) > 0 {
		v["loadgen.lag_p90_ms"] = percentile(b.lagMs, 90)
	}
	for k, x := range b.layer {
		v[k] = x
	}
	return v
}

// report prints the summary and the result line and returns the exit code.
func (b *bench) report() int {
	if b.dig != nil {
		if sum, err := b.dig.sum(); err != nil {
			b.fail("%v", err)
		} else {
			fmt.Fprintf(b.out, "digest: %s over ops 0-%d\n", sum, b.dig.n-1)
		}
	}
	fmt.Fprintf(b.out, "setup: rounds_s=%.4g\n", b.setupS)
	if n := len(b.plainMs); n > 0 {
		line := fmt.Sprintf("latency: n=%d p50=%.4gms", n, median(b.plainMs))
		if p := tailPercentile(n); p > 0 {
			line += fmt.Sprintf(" p%g=%.4gms", p, percentile(b.plainMs, p))
		}
		fmt.Fprintln(b.out, line)
	}
	for _, n := range b.notes {
		fmt.Fprintln(b.out, n)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if b.tr != nil {
		tot := b.tr.totals()
		names := make([]string, 0, len(tot))
		for name := range tot {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := tot[name]
			fmt.Fprintf(b.out, "span: %-28s n=%-7d total_ms=%-12.4f self_ms=%.4f\n", name, t.count, ms(t.total), ms(t.self))
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.opts.workload, b.opts.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(b.out, "spans: not written:", err)
		} else {
			fmt.Fprintln(b.out, "spans:", path)
		}
		defs, values = perLayer, b.layerValues(tot)
	} else {
		values = b.endToEndValues()
	}
	metrics := map[string]any{}
	for _, d := range defs {
		x := values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			b.fail("metric %s is %v", d.name, x)
			x = 0
		}
		metrics[d.name] = map[string]any{"value": x, "unit": d.unit}
	}

	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(b.out, "ops: attempted=%d failed=%d error_rate=%g\n", b.attempted, b.failed, errRate)
	for _, f := range b.failures {
		fmt.Fprintln(b.out, "FAIL:", f)
	}
	correct := b.failed == 0 && b.broken == 0 && b.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(b.out, "FAIL: encode result:", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !correct {
		return 1
	}
	return 0
}
