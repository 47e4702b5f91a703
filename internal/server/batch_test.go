package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hetsched"
	"hetsched/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestBatchScheduleGolden pins the batch endpoint's full JSON response
// shape: order-stable per-job rows, per-row error isolation (the bad
// kernel is rejected in place, the batch still runs), in-batch variant
// dedup and the characterization source counts. The request is fully
// deterministic — implicit arrivals are spread arithmetically and a fresh
// server's tier computes every variant — so the byte-exact body is stable.
func TestBatchScheduleGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", `{
		"system": "proposed",
		"utilization": 0.9,
		"jobs": [
			{"kernel": "tblook"},
			{"kernel": "a2time"},
			{"kernel": "nosuch"},
			{"kernel": "tblook"},
			{"kernel": "aifftr", "scale": 2}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, body)
	}

	path := filepath.Join("testdata", "batch_response.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/server -run BatchScheduleGolden -update)", err)
	}
	if string(body) != string(want) {
		t.Errorf("batch response drifted from golden.\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestBatchErrorIsolation verifies one bad row never fails the batch: the
// invalid rows carry their errors in place, the valid rows schedule and
// complete, and the results array stays order-stable with the request.
func TestBatchErrorIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", `{
		"jobs": [
			{"kernel": "tblook"},
			{"kernel": "nosuch"},
			{"kernel": "a2time", "scale": 99},
			{"kernel": "a2time"}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad rows: status %d, body %s, want 200", resp.StatusCode, body)
	}
	var br BatchScheduleResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Jobs != 4 || br.Scheduled != 2 || br.Rejected != 2 || br.Completed != 2 {
		t.Errorf("batch counts = %+v, want 4 jobs / 2 scheduled / 2 rejected / 2 completed", br)
	}
	if len(br.Results) != 4 {
		t.Fatalf("results rows = %d, want 4 (order-stable with the request)", len(br.Results))
	}
	for i, row := range br.Results {
		if row.Index != i {
			t.Errorf("row %d has index %d; results must be order-stable", i, row.Index)
		}
	}
	if br.Results[1].Error == "" || !strings.Contains(br.Results[1].Error, "nosuch") {
		t.Errorf("row 1 error = %q, want unknown-kernel", br.Results[1].Error)
	}
	if br.Results[2].Error == "" || !strings.Contains(br.Results[2].Error, "scale") {
		t.Errorf("row 2 error = %q, want scale out of range", br.Results[2].Error)
	}
	for _, i := range []int{0, 3} {
		row := br.Results[i]
		if row.Error != "" || row.CompletionCycle == 0 || row.Config == "" || row.Executions < 1 {
			t.Errorf("valid row %d = %+v, want scheduled with a completion", i, row)
		}
	}
	// Both valid rows name distinct kernels; the duplicate-free batch
	// characterized exactly its two variants.
	if c := br.Characterization; c.UniqueVariants != 2 || c.Computed != 2 {
		t.Errorf("characterization = %+v, want 2 unique / 2 computed", c)
	}
}

// TestBatchMixedArrivalsRejected pins the all-or-none arrival contract.
func TestBatchMixedArrivalsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", `{
		"jobs": [
			{"kernel": "tblook", "arrival_cycle": 0},
			{"kernel": "a2time"}
		]
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed arrivals: status %d, body %s, want 400", resp.StatusCode, body)
	}
}

// TestBatchEquivalentToSequential proves the batch path is a throughput
// optimization, not a semantic change: jobs spaced so far apart that the
// system fully drains between them must schedule identically to the same
// jobs submitted one per request — same core, same cache configuration,
// same execution count, same turnaround. The single permitted difference
// is the one-time core reconfiguration (SimConfig.ReconfigCycles): a
// standalone simulation pays it per run, while the batch pays it once and
// later jobs inherit the already-configured core. Any other divergence
// fails the test.
func TestBatchEquivalentToSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	reconfig := uint64(core.DefaultSimConfig().ReconfigCycles)

	kernels := []string{"tblook", "a2time", "aifftr"}
	var jobs []string
	for i, k := range kernels {
		jobs = append(jobs, fmt.Sprintf(`{"kernel": %q, "arrival_cycle": %d}`, k, uint64(i)*20_000_000_000))
	}
	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch",
		`{"jobs": [`+strings.Join(jobs, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, body)
	}
	var batched BatchScheduleResponse
	if err := json.Unmarshal(body, &batched); err != nil {
		t.Fatal(err)
	}

	for i, k := range kernels {
		resp, body := postJSON(t, ts.URL+"/v1/schedule/batch",
			fmt.Sprintf(`{"jobs": [{"kernel": %q}]}`, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %s: status %d, body %s", k, resp.StatusCode, body)
		}
		var single BatchScheduleResponse
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		got, want := batched.Results[i], single.Results[0]
		if got.Config != want.Config || got.Core != want.Core ||
			got.Executions != want.Executions || got.Profiled != want.Profiled {
			t.Errorf("%s: batched row %+v != sequential row %+v", k, got, want)
		}
		delta := want.TurnaroundCycles - got.TurnaroundCycles
		if delta != 0 && delta != reconfig {
			t.Errorf("%s: batched turnaround %d vs sequential %d; want equal or exactly one amortized reconfiguration (%d cycles)",
				k, got.TurnaroundCycles, want.TurnaroundCycles, reconfig)
		}
	}
}

// TestBatchWarmEquivalence proves a memory-tier hit is bit-identical to a
// cold compute at the API level: the same batch twice on one server must
// differ only in the characterization source counts.
func TestBatchWarmEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req := `{"jobs": [
		{"kernel": "tblook"}, {"kernel": "a2time"}, {"kernel": "tblook", "data_seed": 7}
	]}`
	var runs [2]BatchScheduleResponse
	for i := range runs {
		resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cold, warm := runs[0].Characterization, runs[1].Characterization
	if cold.Computed != 3 || warm.Memory != 3 {
		t.Errorf("sources: cold %+v / warm %+v, want 3 computed then 3 memory hits", cold, warm)
	}
	runs[0].Characterization = BatchCharacterizationWire{}
	runs[1].Characterization = BatchCharacterizationWire{}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("warm response diverged from cold:\ncold %+v\nwarm %+v", runs[0], runs[1])
	}
}

// TestBatchCoalescingReduction is the tentpole acceptance test: 64
// concurrent clients with 80%% duplicate-key skew must cut the kernels
// actually characterized by at least 5x versus the lookups issued, with
// every request still answered from identical ground truth.
func TestBatchCoalescingReduction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 128})

	kernels := hetsched.Kernels()
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// 8 of 10 jobs reuse the hot canonical variant; 2 walk a cold
			// pool of distinct per-kernel variants (data_seed 2).
			var jobs []string
			for j := 0; j < 8; j++ {
				jobs = append(jobs, fmt.Sprintf(`{"kernel": %q}`, kernels[0].Name))
			}
			for j := 0; j < 2; j++ {
				k := kernels[(2*c+j)%len(kernels)]
				jobs = append(jobs, fmt.Sprintf(`{"kernel": %q, "data_seed": 2}`, k.Name))
			}
			resp, err := http.Post(ts.URL+"/v1/schedule/batch", "application/json",
				strings.NewReader(`{"jobs": [`+strings.Join(jobs, ",")+`]}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.tier.Stats()
	if st.Computed == 0 {
		t.Fatal("tier computed nothing")
	}
	reduction := float64(st.Requests) / float64(st.Computed)
	t.Logf("tier: %d requests, %d computed, %d mem hits, %d coalesced (%.1fx reduction)",
		st.Requests, st.Computed, st.Mem.Hits, st.Mem.Coalesced, reduction)
	// Each request dedups to <= 3 distinct lookups (1 hot + 2 cold), and
	// the cold pool holds one variant per kernel: at most len(kernels)+1
	// computes across 64*3 lookups.
	if reduction < 5 {
		t.Errorf("characterization reduction %.1fx < 5x under 80%% duplicate-key skew", reduction)
	}
	if int(st.Computed) > len(kernels)+1 {
		t.Errorf("computed %d distinct characterizations, want <= %d", st.Computed, len(kernels)+1)
	}
}

// TestAdmissionShedding verifies the priority-aware 429: with the queue
// past its high-water mark, low-priority work is shed with the dedicated
// code while high-priority work proceeds to the literal queue-full check.
func TestAdmissionShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	defer close(release)
	busyFn, started := blockingJob(release)
	go s.pool.Submit(context.Background(), busyFn)
	<-started
	queuedFn, _ := blockingJob(release)
	go s.pool.Submit(context.Background(), queuedFn)
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	// Low priority: shed by admission control, not the queue.
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 20}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("low-priority: status %d, body %s, want 429", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "shed_low_priority" || er.QueueDepth < 1 {
		t.Errorf("shed envelope = %+v, want shed_low_priority with queue_depth >= 1", er)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	// The batch endpoint sheds under the same bar.
	resp, body = postJSON(t, ts.URL+"/v1/schedule/batch", `{"jobs": [{"kernel": "tblook"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("low-priority batch: status %d, body %s, want 429", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "shed_low_priority" {
		t.Errorf("batch shed code = %q, want shed_low_priority", er.Code)
	}

	snap := s.met.Snapshot()
	if snap.JobsShed < 2 {
		t.Errorf("jobs_shed = %d, want >= 2", snap.JobsShed)
	}

	// /healthz reports the load gauges health probes alert on.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if h.QueueDepth != 1 || h.WorkersBusy != 1 || h.Saturation != 1 {
		t.Errorf("healthz gauges = depth %d busy %d saturation %v, want 1/1/1",
			h.QueueDepth, h.WorkersBusy, h.Saturation)
	}
}

// TestBatchClusterSchedule exercises the cluster batch variant end to end:
// rejected rows isolated, the rest routed across the topology.
func TestBatchClusterSchedule(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/cluster/schedule/batch", `{
		"nodes": "2*quad",
		"jobs": [
			{"kernel": "tblook"}, {"kernel": "a2time"}, {"kernel": "nosuch"},
			{"kernel": "aifftr"}, {"kernel": "tblook", "data_seed": 3}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster batch: status %d, body %s", resp.StatusCode, body)
	}
	var cr BatchClusterScheduleResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Scheduled != 4 || cr.Rejected != 1 || len(cr.RejectedJobs) != 1 {
		t.Errorf("cluster batch counts = %+v, want 4 scheduled / 1 rejected", cr)
	}
	if cr.RejectedJobs[0].Index != 2 {
		t.Errorf("rejected row index = %d, want 2", cr.RejectedJobs[0].Index)
	}
	if cr.Completed != 4 || cr.NodeCount != 2 {
		t.Errorf("cluster run = completed %d over %d nodes, want 4 over 2", cr.Completed, cr.NodeCount)
	}
	if c := cr.Characterization; c.UniqueVariants != 4 {
		t.Errorf("characterization = %+v, want 4 unique variants", c)
	}
}

// TestBatchFaultCounters runs a batch and a cluster run, each on a daemon
// whose System carries a default fault plan: both runs are fault-injected
// like a /v1/schedule run, so every node simulation must feed the same
// fault and predictor counters.
func TestBatchFaultCounters(t *testing.T) {
	plan, err := hetsched.ParseFaultPlan("mttf=200000,recover=5000,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := hetsched.New(hetsched.Options{Spec: hetsched.MustParsePredictorSpec("oracle"), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, body string
		nodes      int64 // node simulations the run makes
	}{
		{"/v1/schedule/batch", `{"jobs": [
			{"kernel": "tblook"}, {"kernel": "a2time"}, {"kernel": "aifftr"}, {"kernel": "tblook"},
			{"kernel": "a2time"}, {"kernel": "aifftr"}, {"kernel": "tblook"}, {"kernel": "a2time"}
		]}`, 1},
		{"/v1/cluster/schedule", `{"nodes": "2*quad", "arrivals": 40, "seed": 3}`, 2},
	} {
		s, err := New(sys, quietConfig(Config{Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.path, resp.StatusCode, body)
		}
		snap := s.met.Snapshot()
		if snap.FaultedRuns != c.nodes || snap.FaultEvents == 0 {
			t.Errorf("%s: faulted_runs = %d, fault_events = %d; want %d and > 0",
				c.path, snap.FaultedRuns, snap.FaultEvents, c.nodes)
		}
		if snap.PredictorRuns != c.nodes || snap.Predictor == nil || snap.Predictor.Predictions == 0 {
			t.Errorf("%s: predictor_runs = %d, predictor = %+v; want %d runs with predictions",
				c.path, snap.PredictorRuns, snap.Predictor, c.nodes)
		}
	}
}

// TestBatchNegativePriority checks both batch endpoints reject a negative
// request-level priority with 400, as /v1/schedule does, instead of
// shedding it with a 429 whose Retry-After no retry could satisfy.
func TestBatchNegativePriority(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/schedule/batch", "/v1/cluster/schedule/batch"} {
		resp, body := postJSON(t, ts.URL+path, `{"priority": -1, "jobs": [{"kernel": "a2time", "priority": -1}]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on a request no retry can fix", path, ra)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != codeBadRequest || er.Error != "negative priority" {
			t.Errorf("%s: envelope %s, want bad_request \"negative priority\"", path, body)
		}
	}
	if shed := s.met.Snapshot().JobsShed; shed != 0 {
		t.Errorf("jobs_shed = %d, want 0", shed)
	}
}

// TestClusterBatchHonorsRowPriorities pins that row priorities order the
// queue on the cluster batch endpoint as they do on /v1/schedule/batch: a
// one-node cluster batch matches the single-node batch on makespan, energy
// and turnaround, and the priorities change its answer.
func TestClusterBatchHonorsRowPriorities(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post := func(url, body string) ScheduleResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", url, resp.StatusCode, raw)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	single := post("/v1/schedule/batch", `{"jobs":[`+batchPriorityRows+`]}`)
	cluster := post("/v1/cluster/schedule/batch", `{"nodes":"quad","jobs":[`+batchPriorityRows+`]}`)
	if single.MakespanCycles == 0 {
		t.Fatalf("single-node batch ran nothing: %+v", single)
	}
	if single.MakespanCycles != cluster.MakespanCycles || single.TotalEnergyNJ != cluster.TotalEnergyNJ ||
		single.TurnaroundP50 != cluster.TurnaroundP50 || single.TurnaroundP95 != cluster.TurnaroundP95 ||
		single.TurnaroundP99 != cluster.TurnaroundP99 {
		t.Errorf("cluster batch %+v differs from single-node batch %+v", cluster, single)
	}
	unprioritized := post("/v1/cluster/schedule/batch",
		`{"nodes":"quad","jobs":[`+strings.ReplaceAll(batchPriorityRows, `,"priority":5`, "")+`]}`)
	if unprioritized.TurnaroundP50 == cluster.TurnaroundP50 && unprioritized.TotalEnergyNJ == cluster.TotalEnergyNJ {
		t.Error("row priorities left the cluster batch unchanged")
	}
}
