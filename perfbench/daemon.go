package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"hetsched"
	"hetsched/internal/energy"
	"hetsched/internal/server"
)

// Request headers tying a traced request to its client-side span.
const (
	headerOp   = "X-Perfbench-Op"
	headerSpan = "X-Perfbench-Span"
)

// buildSystem characterizes the suite and trains the predictor from
// scratch. Passing the default energy constants explicitly routes
// hetsched.New around its process-wide characterization and predictor
// memos, so every set-up round pays the full cold cost, not only the first
// one in a process.
func buildSystem(spec string) (*hetsched.System, error) {
	ps, err := hetsched.ParsePredictorSpec(spec)
	if err != nil {
		return nil, err
	}
	params := energy.DefaultParams()
	return hetsched.New(hetsched.Options{Spec: ps, EnergyParams: &params, Workers: poolWorkers})
}

// withPredictor returns a copy of sys scheduling with pred.
func withPredictor(sys *hetsched.System, pred hetsched.Predictor) *hetsched.System {
	s := *sys
	s.Pred = pred
	return &s
}

// daemon is an in-process hetschedd: server.New behind a loopback
// listener, and a client holding at most poolWorkers connections.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon serves sys on a loopback port with no disk cache and
// discarded logs. A non-nil tracer records a server.handler span around
// every request that carries a client span.
func startDaemon(sys *hetsched.System, tr *tracer) (*daemon, error) {
	srv, err := server.New(sys, server.Config{
		Workers: poolWorkers,
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // only stops the idle pool
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = spanMiddleware(tr, h)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     poolWorkers,
				MaxIdleConnsPerHost: poolWorkers,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for Serve to return, then drains the
// server's worker pool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); derr != nil && err == nil {
		err = derr
	}
	d.client.CloseIdleConnections()
	return err
}

// post sends one op; span >= 0 asks the middleware to trace it.
func (d *daemon) post(ctx context.Context, path string, body []byte, op, span int) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerOp, strconv.Itoa(op))
	if span >= 0 {
		req.Header.Set(headerSpan, strconv.Itoa(span))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// snapshot reads the daemon's /metrics.
func (d *daemon) snapshot(ctx context.Context) (server.Snapshot, error) {
	var snap server.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// spanMiddleware times Server.Handler() for every request that carries a
// client span, as a child of that span.
func spanMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(headerSpan))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(headerOp)) // set beside every span header
		sp := tr.begin("server.handler", parent, op)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}
