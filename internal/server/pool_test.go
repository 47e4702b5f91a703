package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingJob returns a job that parks until release is closed, plus the
// channel signalling it started.
func blockingJob(release <-chan struct{}) (fn func(context.Context) (any, error), started chan struct{}) {
	started = make(chan struct{})
	return func(context.Context) (any, error) {
		close(started)
		<-release
		return "done", nil
	}, started
}

func TestPoolRunsJobs(t *testing.T) {
	p, err := NewPool(2, 4, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain(context.Background())
	v, _, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		return 41 + 1, nil
	})
	if err != nil || v.(int) != 42 {
		t.Fatalf("Submit = %v, %v", v, err)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p, err := NewPool(1, 1, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer func() {
		close(release)
		p.Drain(context.Background())
	}()

	// Occupy the single worker...
	busyFn, started := blockingJob(release)
	go p.Submit(context.Background(), busyFn)
	<-started
	// ...and the single queue slot.
	queuedFn, _ := blockingJob(release)
	go p.Submit(context.Background(), queuedFn)
	waitFor(t, func() bool { return p.QueueDepth() == 1 })

	// The next submission must bounce immediately.
	_, _, err = p.Submit(context.Background(), func(context.Context) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	if p.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", p.rejected.Load())
	}
}

func TestPoolCanceledWhileQueuedNeverRuns(t *testing.T) {
	p, err := NewPool(1, 4, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})

	busyFn, started := blockingJob(release)
	go p.Submit(context.Background(), busyFn)
	<-started

	var ran atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Submit(ctx, func(context.Context) (any, error) {
			ran.Store(true)
			return nil, nil
		})
		done <- err
	}()
	waitFor(t, func() bool { return p.QueueDepth() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel = %v, want context.Canceled", err)
	}

	// Free the worker; it must discard the dead task without running it.
	close(release)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Error("canceled queued job was executed")
	}
	if p.canceled.Load() != 1 {
		t.Errorf("canceled counter = %d, want 1", p.canceled.Load())
	}
}

func TestPoolDrainFinishesQueuedWork(t *testing.T) {
	p, err := NewPool(2, 8, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(context.Context) (any, error) {
				time.Sleep(5 * time.Millisecond)
				done.Add(1)
				return nil, nil
			})
		}()
	}
	waitFor(t, func() bool { return p.submitted.Load() == 8 })
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if done.Load() != 8 {
		t.Errorf("drained with %d/8 jobs done", done.Load())
	}

	// After drain every submission is refused.
	if _, _, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
}

// quietLog discards the pool's panic log.
var quietLog = log.New(io.Discard, "", 0)

func TestPoolRecoverPanic(t *testing.T) {
	p, err := NewPool(1, 1, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain(context.Background())
	_, _, err = p.Submit(context.Background(), func(context.Context) (any, error) {
		panic("boom")
	})
	if !errors.Is(err, errJobPanic) || p.panics.Load() != 1 {
		t.Fatalf("panic job: err=%v panics=%d", err, p.panics.Load())
	}
	// The worker must have survived.
	if v, _, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		return "alive", nil
	}); err != nil || v != "alive" {
		t.Fatalf("worker dead after panic: %v, %v", v, err)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestJobPanicBody checks a panicking job's answer: 500 internal with a
// fixed message that carries no Go stack, while the stack goes to the
// server's log and job_panics counts the panic.
func TestJobPanicBody(t *testing.T) {
	var logged bytes.Buffer
	s, err := New(testSystem(t), Config{Workers: 1, Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.Drain(context.Background())
	rec := httptest.NewRecorder()
	s.serveJob(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", nil), "schedule",
		func(context.Context) (any, error) { panic("boom") })
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusInternalServerError || er.Code != codeInternal {
		t.Fatalf("status %d, body %s; want 500 internal", rec.Code, rec.Body.Bytes())
	}
	if body := rec.Body.String(); strings.Contains(body, "goroutine ") || strings.Contains(body, ".go:") {
		t.Errorf("500 body carries the Go stack: %s", body)
	}
	if log := logged.String(); !strings.Contains(log, "boom") || !strings.Contains(log, "goroutine ") {
		t.Errorf("panic and stack missing from the log: %q", log)
	}
	if n := s.met.Snapshot().JobPanics; n != 1 {
		t.Errorf("job_panics = %d, want 1", n)
	}
}
