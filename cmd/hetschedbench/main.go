// Command hetschedbench hammers a hetschedd daemon with concurrent
// POST /v1/schedule requests and reports scheduling-service throughput,
// latency percentiles and backpressure behaviour — the "heavy traffic"
// benchmark for the serving path.
//
// With -addr it targets a running daemon; without it, it starts a daemon
// in-process on a loopback port (training the predictor first), so
//
//	go run ./cmd/hetschedbench -requests 256 -concurrency 64 -workers 4
//
// is a self-contained load test: 64 in-flight requests against a 4-worker
// pool, with 429s counted as correct backpressure rather than failures.
//
// -cluster switches the target to POST /v1/cluster/schedule, routing each
// request's workload (a -scenario one too) across the given multi-node
// topology; the report then also shows the daemon's cumulative cluster
// run/steal counters.
//
// -batch N switches to the batch serving path (POST /v1/schedule/batch, or
// the cluster variant with -cluster): each request carries N explicit jobs,
// and -dup-skew controls what fraction of them reuse one hot kernel
// variant. The report then adds the coalescing-effectiveness line —
// characterization lookups issued vs kernels actually computed — pulled
// from the daemon's /metrics characterization block.
//
// Client-side latency percentiles (p50/p95/p99/p99.9) come from the same
// streaming reservoir the daemon uses for /metrics, so the two views are
// directly comparable.
//
// Exit status is non-zero when the failed-request fraction (statuses other
// than 200 or 429) exceeds -max-errors (default 0), so the benchmark is
// scriptable in CI.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hetsched"
	"hetsched/internal/server"
	"hetsched/internal/stats"
)

// latencyReservoirCap bounds the client-side latency sample; 4096 samples
// hold p99.9 of any benchmark run this tool can realistically issue.
const latencyReservoirCap = 4096

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetschedbench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", "", "target daemon base URL (e.g. http://localhost:8080); empty starts one in-process")
	requests := flag.Int("requests", 256, "total schedule requests to issue")
	concurrency := flag.Int("concurrency", 64, "in-flight request cap")
	arrivals := flag.Int("arrivals", 200, "workload length per request")
	util := flag.Float64("util", 0.9, "offered load per request")
	system := flag.String("system", "proposed", "system to schedule with")
	spec := hetsched.MustParsePredictorSpec("oracle")
	flag.TextVar(&spec, "predictor", hetsched.MustParsePredictorSpec("oracle"),
		"in-process predictor (oracle avoids ANN training); any kind or ensemble:kind[=weight],...")
	workers := flag.Int("workers", 4, "in-process worker pool size")
	queue := flag.Int("queue", 32, "in-process queue depth (small enough to exercise 429s)")
	cluster := flag.String("cluster", "", "benchmark /v1/cluster/schedule over this topology instead of /v1/schedule (e.g. 8*quad;8*16x2)")
	batch := flag.Int("batch", 0, "jobs per request; > 0 targets the batch endpoint (/v1/schedule/batch) instead")
	dupSkew := flag.Float64("dup-skew", 0.8, "fraction of each batch reusing one hot kernel variant (duplicate-key skew; batch mode only)")
	maxErrors := flag.Float64("max-errors", 0, "tolerated failed-request fraction in [0, 1) before a non-zero exit")
	var scenarioSpec hetsched.ScenarioSpec
	flag.TextVar(&scenarioSpec, "scenario", hetsched.ScenarioSpec{},
		"workload scenario each request schedules (e.g. bursty:rate=1.2;mix=a2time*3+matrix;slo=deadline:slack=1.5); not with -batch")
	spread := flag.Duration("spread", 0, "pace request launches over this wall-clock window using the scenario's arrival shape (0 = fire at full speed)")
	flag.Parse()

	if *requests < 1 || *concurrency < 1 {
		return fmt.Errorf("requests and concurrency must be >= 1")
	}
	if *batch < 0 || *batch > 20000 {
		return fmt.Errorf("-batch %d out of range [0, 20000]", *batch)
	}
	if *dupSkew < 0 || *dupSkew > 1 {
		return fmt.Errorf("-dup-skew %v out of range [0, 1]", *dupSkew)
	}
	if *maxErrors < 0 || *maxErrors >= 1 {
		return fmt.Errorf("-max-errors %v out of range [0, 1)", *maxErrors)
	}
	if !scenarioSpec.IsZero() && *batch > 0 {
		return fmt.Errorf("-scenario applies to the generated endpoints only (not -batch)")
	}

	// The launch schedule: with -spread, request i fires at launchAt[i]
	// after start — shaped by the scenario's arrival process (uniform when
	// no scenario is set), so the daemon sees poisson/bursty/diurnal load
	// rather than a closed firehose.
	var launchAt []time.Duration
	if *spread > 0 {
		shape := scenarioSpec
		if shape.IsZero() {
			shape = hetsched.MustParseScenarioSpec("uniform")
		}
		fracs, err := hetsched.ScenarioArrivalFractions(shape, *requests, 1)
		if err != nil {
			return fmt.Errorf("-spread: %w", err)
		}
		launchAt = make([]time.Duration, len(fracs))
		for i, f := range fracs {
			launchAt[i] = time.Duration(f * float64(*spread))
		}
	}

	base := *addr
	if base == "" {
		fmt.Fprintf(os.Stderr, "starting in-process daemon (%s predictor, %d workers, queue %d)...\n",
			spec, *workers, *queue)
		sys, err := hetsched.New(hetsched.Options{Spec: spec})
		if err != nil {
			return err
		}
		srv, err := server.New(sys, server.Config{
			Workers:    *workers,
			QueueDepth: *queue,
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
		defer ln.Close()
		base = "http://" + ln.Addr().String()
	}

	endpoint, epName := "/v1/schedule", "schedule"
	fields := map[string]any{
		"system":      *system,
		"arrivals":    *arrivals,
		"utilization": *util,
	}
	if !scenarioSpec.IsZero() {
		fields["scenario"] = scenarioSpec.String()
	}
	if *cluster != "" {
		if _, err := hetsched.ParseClusterSpec(*cluster); err != nil {
			return fmt.Errorf("-cluster: %w", err)
		}
		endpoint, epName = "/v1/cluster/schedule", "cluster"
		fields["nodes"] = *cluster
	}
	if *batch > 0 {
		delete(fields, "arrivals")
		if *cluster != "" {
			endpoint, epName = "/v1/cluster/schedule/batch", "cluster_batch"
		} else {
			endpoint, epName = "/v1/schedule/batch", "batch"
		}
	}
	payload, err := json.Marshal(fields)
	if err != nil {
		return err
	}

	kernels := hetsched.Kernels()
	client := &http.Client{Timeout: 5 * time.Minute}
	// Successful-request latencies go through the same streaming reservoir
	// the daemon uses for /metrics, so client and server percentiles are
	// directly comparable.
	latencies, err := stats.NewReservoir(latencyReservoirCap, 1)
	if err != nil {
		return err
	}
	var (
		next     atomic.Int64
		ok       atomic.Int64
		rejected atomic.Int64
		failed   atomic.Int64
		mu       sync.Mutex
		maxLat   time.Duration
	)
	fmt.Fprintf(os.Stderr, "firing %d requests (%d in flight) at %s ...\n",
		*requests, *concurrency, base)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(seedBase int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*requests) {
					return
				}
				if launchAt != nil {
					if d := launchAt[i] - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				}
				var body []byte
				if *batch > 0 {
					body = batchBody(payload, i, *batch, *dupSkew, kernels)
				} else {
					// Vary the seed per request so runs aren't byte-identical.
					body = bytes.Replace(payload, []byte(`"system"`),
						[]byte(fmt.Sprintf(`"seed":%d,"system"`, i+1)), 1)
				}
				t0 := time.Now()
				resp, err := client.Post(base+endpoint, "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					lat := time.Since(t0)
					mu.Lock()
					latencies.Observe(ms(lat))
					if lat > maxLat {
						maxLat = lat
					}
					mu.Unlock()
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("requests:    %d total, %d ok, %d backpressured (429), %d failed\n",
		*requests, ok.Load(), rejected.Load(), failed.Load())
	fmt.Printf("wall time:   %.2fs\n", elapsed.Seconds())
	jobsPer := *arrivals
	if *batch > 0 {
		jobsPer = *batch
	}
	fmt.Printf("throughput:  %.1f scheduled workloads/s (%.0f simulated arrivals/s)\n",
		float64(ok.Load())/elapsed.Seconds(),
		float64(ok.Load())*float64(jobsPer)/elapsed.Seconds())
	if qs, err := latencies.Quantiles(0.50, 0.95, 0.99, 0.999); err == nil {
		fmt.Printf("latency:     p50 %.1fms  p95 %.1fms  p99 %.1fms  p99.9 %.1fms  max %.1fms\n",
			qs[0], qs[1], qs[2], qs[3], ms(maxLat))
	}

	// Pull the daemon's own view of the run.
	if resp, err := client.Get(base + "/metrics"); err == nil {
		var snap server.Snapshot
		if json.NewDecoder(resp.Body).Decode(&snap) == nil {
			ep := snap.Endpoints[epName]
			fmt.Printf("server view: accepted=%d rejected=%d shed=%d p95=%.1fms queue_wait_p95=%.1fms workers=%d\n",
				snap.JobsAccepted, snap.JobsRejected, snap.JobsShed, ep.P95Ms, ep.QueueWaitP95, snap.Workers)
			if *cluster != "" {
				fmt.Printf("cluster view: runs=%d steals=%d across %d nodes\n",
					snap.ClusterRuns, snap.ClusterSteals, len(snap.ClusterNodes))
			}
			// SLO view: the deadline accounting the daemon accumulated from
			// scenario-bearing runs (present only with a -scenario slo= section).
			if snap.SLORuns > 0 && snap.SLODeadlines > 0 {
				fmt.Printf("slo view:    %d runs, %d/%d deadlines missed (%.2f%%), %d slo migrations\n",
					snap.SLORuns, snap.SLOMisses, snap.SLODeadlines,
					100*float64(snap.SLOMisses)/float64(snap.SLODeadlines), snap.SLOMigrations)
			}
			// Coalescing effectiveness: how many characterization lookups the
			// serving tier absorbed vs how many actually ran the kernel.
			if c := snap.Characterization; c != nil && c.Requests > 0 {
				computed := c.Computed
				if computed == 0 {
					computed = 1
				}
				fmt.Printf("characterize: %d tier requests -> %d computed (%.1fx reduction; %d mem hits, %d coalesced, %d disk hits)\n",
					c.Requests, c.Computed, float64(c.Requests)/float64(computed),
					c.Mem.Hits, c.Mem.Coalesced, c.DiskHits)
			}
		}
		resp.Body.Close()
	}

	if frac := float64(failed.Load()) / float64(*requests); frac > *maxErrors {
		return fmt.Errorf("%d of %d requests failed (%.1f%% > -max-errors %.1f%%)",
			failed.Load(), *requests, 100*frac, 100**maxErrors)
	}
	if ok.Load() == 0 {
		return fmt.Errorf("no request succeeded")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchBody splices a deterministic jobs array into the base payload:
// round(skew×n) jobs per request reuse one hot kernel variant (the first
// kernel at canonical parameters) and the rest cycle through a cold pool
// of distinct kernel/data-seed variants, so the serving tier's coalescing
// and LRU face a realistic duplicate-key distribution.
func batchBody(payload []byte, req int64, n int, skew float64, kernels []hetsched.Kernel) []byte {
	hot := int(skew*float64(n) + 0.5)
	var jobs bytes.Buffer
	jobs.WriteString(`"jobs":[`)
	for j := 0; j < n; j++ {
		if j > 0 {
			jobs.WriteByte(',')
		}
		if j < hot || len(kernels) < 2 {
			fmt.Fprintf(&jobs, `{"kernel":%q}`, kernels[0].Name)
			continue
		}
		v := int(req)*n + j
		cold := kernels[1+v%(len(kernels)-1)]
		fmt.Fprintf(&jobs, `{"kernel":%q,"data_seed":%d}`,
			cold.Name, 2+v/(len(kernels)-1)%8)
	}
	jobs.WriteString(`],`)
	return bytes.Replace(payload, []byte(`"system"`), append(jobs.Bytes(), []byte(`"system"`)...), 1)
}
