package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hetsched"
	"hetsched/internal/core"
)

const (
	// httpWarmup is how many ops each set-up round issues, one at a time,
	// before the measured phase.
	httpWarmup = 8
	// httpDigestOps is how many leading ops the digest covers: the warm-up
	// ops and the start of the first open-loop slice.
	httpDigestOps = 32
	// httpSlices is how many open-loop and closed-loop slices the measured
	// phase alternates through.
	httpSlices = 4
	// closedBase is the first index of the closed-loop op sequence.
	closedBase = 1 << 20
)

// httpWorkload is one traffic mix against an in-process daemon.
type httpWorkload struct {
	predictor string  // predictor spec of the daemon's System
	meter     string  // layer its predictor timings report under
	path      string  // endpoint every op POSTs to
	series    string  // that endpoint's name in /metrics
	rate      float64 // open-loop requests per second (a constant, never derived from a run)
	body      func(op int) ([]byte, error)
	// check validates a 200 response and returns the simulated jobs it
	// completed and the bytes the digest covers; traced marks ops whose
	// response replay compares against.
	check func(op int, traced bool, resp []byte) (jobs int, output []byte, err error)
	// replay runs once per op in issue order after a traced run's measured
	// phase, on the served System. For traced ops it re-times the op's
	// library work under a server.lib span.
	replay func(ctx context.Context, sys *hetsched.System, op int, traced bool) error
}

// runHTTP sets up a daemon, then measures: an open loop at the workload's
// fixed rate gives the latencies, and a closed loop of poolWorkers clients
// gives the throughput.
func runHTTP(ctx context.Context, b *bench, w *httpWorkload) error {
	b.dig = newDigest(httpDigestOps)
	b.meter = newPredMeter(b.tr, w.meter)
	var (
		d      *daemon
		served *hetsched.System // with the predictor meter in traced runs
	)
	defer func() {
		if d != nil {
			if err := d.stop(); err != nil {
				b.fail("stop daemon: %v", err)
			}
		}
	}()
	var tracedOK sync.Map // op -> true for traced ops that succeeded
	issue := func(op int, traced bool) (int, bool) {
		jobs, ok := b.httpOp(ctx, d, w, op, traced)
		if ok && traced {
			tracedOK.Store(op, true)
		}
		return jobs, ok
	}

	for round := 0; round < b.rounds(); round++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stop set-up daemon: %w", err)
			}
			d = nil
		}
		coldStart()
		t0 := time.Now()
		raw, err := buildSystem(w.predictor)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		served = raw
		if b.tr != nil {
			mp, err := b.meter.wrap(raw.Pred)
			if err != nil {
				return err
			}
			served = withPredictor(raw, mp)
		}
		if d, err = startDaemon(served, b.tr); err != nil {
			return err
		}
		for op := 0; op < httpWarmup; op++ {
			issue(op, false)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
	}

	// The measured phase alternates open-loop and closed-loop slices, so
	// both metrics sample the whole run rather than one half of it. Open
	// and closed ops draw from separate index ranges: how many closed ops
	// fit in a slice depends on timing, but every run issues the same open
	// sequence and the same closed sequence. In a traced run every other
	// open slice records no spans; those ops give the tracing overhead.
	slice := b.duration() / (2 * httpSlices)
	perSlice := max(int(w.rate*slice.Seconds()), 1)
	openNext, closedNext := httpWarmup, closedBase
	var (
		jobs   atomic.Int64
		closed time.Duration
		order  [][2]int // issued op ranges, in order, for the replay
	)
	order = append(order, [2]int{0, httpWarmup})
	alloc0 := memStats().TotalAlloc
	for s := 0; s < httpSlices; s++ {
		traced := b.tr != nil && s%2 == 1
		b.tr.setMetering(traced)
		samples := openLoop(realClock{}, time.Now(), w.rate, openNext, perSlice, poolWorkers, func(op int) bool {
			_, ok := issue(op, traced)
			return ok
		})
		for _, smp := range samples {
			b.lagMs = append(b.lagMs, ms(smp.lag()))
			if smp.ok {
				b.recordOp(smp.latency(), traced)
			}
		}
		order = append(order, [2]int{openNext, openNext + perSlice})
		openNext += perSlice

		b.tr.setMetering(true)
		start := time.Now()
		n, end := closedLoop(closedNext, poolWorkers, start.Add(slice), func(op int) {
			j, _ := issue(op, b.tr != nil)
			jobs.Add(int64(j))
		})
		closed += end.Sub(start)
		order = append(order, [2]int{closedNext, closedNext + n})
		closedNext += n
	}
	b.tr.setMetering(false)
	if b.tr != nil {
		// Closed-loop ops are traced too but are not latency samples.
		tracedOK.Range(func(op, _ any) bool {
			if op.(int) >= closedBase {
				b.tracedOps++
			}
			return true
		})
	}
	b.recordMeter()
	b.simJobs = float64(jobs.Load())
	b.simSeconds = closed.Seconds()
	b.allocBytes = memStats().TotalAlloc - alloc0
	b.measuredOps = openNext - httpWarmup + closedNext - closedBase
	snap, err := d.snapshot(ctx)
	if err != nil {
		return err
	}
	b.layer["server.queue_wait_p95_ms"] = snap.Endpoints[w.series].QueueWaitP95
	b.layer["server.rejected"] = float64(snap.JobsRejected + snap.JobsShed)
	b.note("open loop: rate=%g/s ops=%d; closed loop: clients=%d ops=%d; %d slices each; server workers=%d",
		w.rate, openNext-httpWarmup, poolWorkers, closedNext-closedBase, httpSlices, snap.Workers)
	b.measureHeap()

	if b.tr != nil {
		// The replay runs metered, as the served ops did, so handler and
		// library times carry the same instrumentation.
		b.tr.setMetering(true)
		defer b.tr.setMetering(false)
		for _, r := range order {
			for op := r[0]; op < r[1]; op++ {
				_, traced := tracedOK.Load(op)
				if err := w.replay(ctx, served, op, traced); err != nil {
					b.opFailed(op, "replay: %v", err)
				}
			}
		}
	}
	return nil
}

// checkRerun compares a traced op's library re-run with the summary its
// response carried.
func checkRerun(m core.Metrics, completed int, makespan uint64, energyNJ float64) error {
	if m.Completed != completed || m.Makespan != makespan || m.TotalEnergy() != energyNJ {
		return fmt.Errorf("library re-run (completed %d, makespan %d, energy %v) differs from the response (%d, %d, %v)",
			m.Completed, m.Makespan, m.TotalEnergy(), completed, makespan, energyNJ)
	}
	return nil
}

// httpOp issues one op and checks its response; it returns the simulated
// jobs the op completed and whether it succeeded.
func (b *bench) httpOp(ctx context.Context, d *daemon, w *httpWorkload, op int, traced bool) (int, bool) {
	b.attempt()
	body, err := w.body(op)
	if err != nil {
		b.opFailed(op, "build request: %v", err)
		return 0, false
	}
	var tr *tracer
	if traced {
		tr = b.tr
	}
	root := tr.begin("op", -1, op)
	resp, status, err := d.post(ctx, w.path, body, op, root)
	tr.end(root)
	if err != nil {
		b.opFailed(op, "%v", err)
		return 0, false
	}
	if status != http.StatusOK {
		b.opFailed(op, "status %d: %.200s", status, resp)
		return 0, false
	}
	jobs, output, err := w.check(op, traced, resp)
	if err != nil {
		b.opFailed(op, "%v", err)
		return 0, false
	}
	if err := b.dig.add(op, output); err != nil {
		b.opFailed(op, "%v", err)
		return 0, false
	}
	if traced {
		b.respBytes.Add(int64(len(resp)))
	}
	return jobs, true
}
