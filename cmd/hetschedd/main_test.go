package main

import (
	"bytes"
	"context"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer that the daemon's goroutines and the test
// may use at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-predictor", "bogus"}, {"-workers", "x"}} {
		var stderr syncBuffer
		if err := run(context.Background(), args, &stderr); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

// TestRunServesUntilCancelled starts the daemon twice on one cache
// directory. The first start's context is cancelled before the server
// listens, so the shutdown wins the race against ListenAndServe: run must
// still return nil. The second start loads both DBs from the cache the
// first one wrote, logs the port it bound, serves on it, and drains when
// its context is cancelled.
func TestRunServesUntilCancelled(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-debug-addr", "", "-predictor", "oracle",
		"-workers", "1", "-cache-dir", t.TempDir()}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cold syncBuffer
	if err := run(ctx, args, &cold); err != nil {
		t.Fatalf("cancelled start: %v\n%s", err, cold.String())
	}
	if !strings.Contains(cold.String(), "eval=false train=false") {
		t.Errorf("cold start did not characterize:\n%s", cold.String())
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var warm syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &warm) }()
	deadline := time.After(time.Minute)
	for !strings.Contains(warm.String(), "msg=listening") {
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, warm.String())
		case <-deadline:
			t.Fatalf("daemon never listened:\n%s", warm.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The log names the port actually bound, and the daemon answers on it.
	m := regexp.MustCompile(`msg=listening addr=(\S+)`).FindStringSubmatch(warm.String())
	if m == nil || strings.HasSuffix(m[1], ":0") {
		t.Fatalf("listening line does not name the bound port:\n%s", warm.String())
	}
	resp, err := http.Get("http://" + m[1] + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz on the logged address: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz on the logged address: status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v\n%s", err, warm.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return after cancellation")
	}
	out := warm.String()
	if !strings.Contains(out, "eval=true train=true") {
		t.Errorf("second start missed the cache:\n%s", out)
	}
	if !strings.Contains(out, "msg=shutdown-complete err=<nil>") {
		t.Errorf("run returned before the drain completed:\n%s", out)
	}
}
