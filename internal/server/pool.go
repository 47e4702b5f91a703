// Package server turns the hetsched reproduction into a long-running
// scheduling service: an HTTP API over a shared, immutable *hetsched.System,
// with a bounded job queue, a fixed worker pool, backpressure, per-request
// timeouts, metrics/pprof observability and graceful drain.
//
// Concurrency model: one *hetsched.System is shared read-only by every
// worker (it is immutable after hetsched.New — see the System docs). The
// discrete-event simulator is single-use and NOT goroutine-safe, so each
// worker constructs a private simulator per job via System.RunSystem and
// never shares it; at most Workers simulations run at once.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Submission errors surfaced to handlers (and mapped onto HTTP statuses).
var (
	// ErrQueueFull rejects a submission when the bounded queue has no slot —
	// the backpressure signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining rejects submissions after shutdown began (HTTP 503).
	ErrDraining = errors.New("server: shutting down, not accepting work")
	// errJobPanic answers a job that panicked (HTTP 500); its value and
	// stack go to the pool's logger, never to the client.
	errJobPanic = errors.New("server: internal error")
)

// taskResult carries a finished job back to its submitter.
type taskResult struct {
	v    any
	wait time.Duration // time spent queued before a worker picked it up
	err  error
}

// task is one queued unit of work.
type task struct {
	ctx      context.Context
	fn       func(ctx context.Context) (any, error)
	done     chan taskResult // buffered(1): workers never block delivering
	enqueued time.Time
}

// Pool is the bounded job queue plus its fixed worker set.
type Pool struct {
	tasks   chan *task
	workers int
	logger  *log.Logger // receives each recovered panic with its stack

	// mu guards the draining flag against the tasks-channel close: Submit
	// sends under RLock, Drain closes under Lock, so a send can never hit a
	// closed channel.
	mu       sync.RWMutex
	draining bool

	wg   sync.WaitGroup
	busy atomic.Int64

	// Counters read by the metrics layer.
	submitted atomic.Int64 // accepted into the queue
	rejected  atomic.Int64 // ErrQueueFull
	canceled  atomic.Int64 // context ended before the job ran
	panics    atomic.Int64 // jobs that panicked (recovered)
}

// NewPool starts workers goroutines behind a queue of the given depth;
// logger, which must not be nil, receives the stack of any job that panics.
func NewPool(workers, depth int, logger *log.Logger) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("server: %d workers < 1", workers)
	}
	if depth < 1 {
		return nil, fmt.Errorf("server: queue depth %d < 1", depth)
	}
	p := &Pool{
		tasks:   make(chan *task, depth),
		workers: workers,
		logger:  logger,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p, nil
}

// Submit enqueues fn and blocks until it finishes, the queue rejects it, or
// ctx ends. A job whose context ends while still queued is never run: the
// worker observes the dead context and discards it. The returned wait is the
// time the job spent queued before a worker picked it up (zero when it never
// ran).
func (p *Pool) Submit(ctx context.Context, fn func(ctx context.Context) (any, error)) (v any, wait time.Duration, err error) {
	t := &task{
		ctx:      ctx,
		fn:       fn,
		done:     make(chan taskResult, 1),
		enqueued: time.Now(),
	}

	p.mu.RLock()
	if p.draining {
		p.mu.RUnlock()
		return nil, 0, ErrDraining
	}
	select {
	case p.tasks <- t:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		p.rejected.Add(1)
		return nil, 0, ErrQueueFull
	}
	p.submitted.Add(1)

	select {
	case r := <-t.done:
		return r.v, r.wait, r.err
	case <-ctx.Done():
		// The task stays in the queue; the worker that dequeues it sees the
		// dead context and drops it without running fn.
		return nil, 0, ctx.Err()
	}
}

// worker executes queued tasks until the queue is closed and empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		wait := time.Since(t.enqueued)
		if err := t.ctx.Err(); err != nil {
			// Abandoned while queued: the submitter already returned; a
			// result is still delivered so the done channel always resolves.
			p.canceled.Add(1)
			t.done <- taskResult{wait: wait, err: err}
			continue
		}
		p.busy.Add(1)
		v, err := p.run(t)
		p.busy.Add(-1)
		t.done <- taskResult{v: v, wait: wait, err: err}
	}
}

// run executes one task, converting a panic into errJobPanic so a malformed
// request cannot take the daemon down.
func (p *Pool) run(t *task) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			p.logger.Printf("msg=job-panic panic=%q\n%s", fmt.Sprint(r), debug.Stack())
			err = errJobPanic
		}
	}()
	return t.fn(t.ctx)
}

// Drain stops accepting work, lets the workers finish everything already
// queued or running, and returns when they have all exited or ctx ends.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if !already {
		close(p.tasks)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// QueueDepth is the number of jobs waiting (not yet picked up).
func (p *Pool) QueueDepth() int { return len(p.tasks) }

// QueueCapacity is the bounded queue's size.
func (p *Pool) QueueCapacity() int { return cap(p.tasks) }

// Busy is the number of workers currently executing a job.
func (p *Pool) Busy() int64 { return p.busy.Load() }

// Workers is the pool size.
func (p *Pool) Workers() int { return p.workers }
