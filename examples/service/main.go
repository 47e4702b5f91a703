// Service example: run the hetschedd scheduling service in-process, submit
// a mixed EEMBC workload over its HTTP API the way a remote client would,
// and print the returned metrics — the smallest end-to-end tour of the
// daemon's client path (health check, prediction, scheduling, metrics).
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"hetsched"
	"hetsched/internal/server"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Build the shared System once (the oracle predictor skips ANN
	// training; the zero Options.Spec selects the paper's ANN) and wrap
	// it in the service. The System is immutable, so the 2-worker pool
	// shares it read-only.
	fmt.Fprintln(os.Stderr, "characterizing suite and starting in-process daemon...")
	sys, err := hetsched.New(hetsched.Options{Spec: hetsched.MustParsePredictorSpec("oracle")})
	if err != nil {
		return err
	}
	srv, err := server.New(sys, server.Config{
		Workers:    2,
		QueueDepth: 8,
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: time.Minute}
	get := func(path string, out any) error {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(out)
	}
	post := func(path string, req, out any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s: %s: %s", path, resp.Status, b)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	var health server.HealthResponse
	if err := get("/healthz", &health); err != nil {
		return err
	}
	fmt.Printf("daemon up: predictor=%s workers=%d queue=%d\n\n",
		health.Predictor, health.Workers, health.QueueCapacity)

	// Ask the service for one kernel's best cache size.
	var pred server.PredictResponse
	if err := post("/v1/predict", server.PredictRequest{Kernel: "tblook"}, &pred); err != nil {
		return err
	}
	fmt.Printf("predict tblook: best size %dKB (oracle %dKB)\n\n", pred.PredictedKB, pred.OracleKB)

	// Schedule an engine-management-heavy automotive mix: table lookups and
	// angle-to-time conversion dominate, with some CAN bit manipulation.
	mix := server.ScheduleRequest{
		System:      "proposed",
		Arrivals:    600,
		Utilization: 0.9,
		Seed:        7,
		Scenario:    "uniform;mix=tblook*3+a2time*2+canrdr+rspeed",
	}
	var m server.ScheduleResponse
	if err := post("/v1/schedule", mix, &m); err != nil {
		return err
	}
	fmt.Printf("scheduled %d arrivals on the %s system:\n", m.Jobs, m.System)
	fmt.Printf("  completed:        %d\n", m.Completed)
	fmt.Printf("  makespan:         %d cycles\n", m.MakespanCycles)
	fmt.Printf("  turnaround p50:   %d cycles\n", m.TurnaroundP50)
	fmt.Printf("  turnaround p95:   %d cycles\n", m.TurnaroundP95)
	fmt.Printf("  total energy:     %.0f nJ (idle %.0f, dynamic %.0f)\n",
		m.TotalEnergyNJ, m.IdleEnergyNJ, m.DynamicEnergyNJ)
	fmt.Printf("  profiling runs:   %d   stalls: %d deliberate, %d resource\n\n",
		m.ProfilingRuns, m.StallDecisions, m.ResourceStalls)

	// The daemon's own service metrics, as an operator would read them.
	var snap server.Snapshot
	if err := get("/metrics", &snap); err != nil {
		return err
	}
	ep := snap.Endpoints["schedule"]
	fmt.Printf("service metrics: %d requests, schedule p95 %.1fms, queue rejected %d\n",
		snap.Requests, ep.P95Ms, snap.JobsRejected)

	// Drain gracefully, as the daemon does on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
