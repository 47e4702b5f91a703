package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched"
)

// testSystem builds (once per process) a System with the training-free
// oracle predictor — the characterization is cached process-wide, so every
// test shares the same read-only ground truth.
var (
	sysOnce sync.Once
	sysVal  *hetsched.System
	sysErr  error
)

func testSystem(t testing.TB) *hetsched.System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = hetsched.New(hetsched.Options{Spec: hetsched.MustParsePredictorSpec("oracle")})
	})
	if sysErr != nil {
		t.Fatalf("building test system: %v", sysErr)
	}
	return sysVal
}

// quietConfig silences request logging and fills small test defaults.
func quietConfig(c Config) Config {
	c.Logger = log.New(io.Discard, "", 0)
	return c
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testSystem(t), quietConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHealthAndDesignSpace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Workers != 2 || h.Predictor != "oracle" {
		t.Errorf("health = %+v", h)
	}

	resp, err = http.Get(ts.URL + "/v1/designspace")
	if err != nil {
		t.Fatal(err)
	}
	var ds DesignSpaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ds.Configs) != 18 {
		t.Errorf("design space has %d configs, want 18 (Table 1)", len(ds.Configs))
	}
}

func TestPredictEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"kernel": "tblook"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d, body %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	// The oracle predictor must agree with itself.
	if !pr.Match || pr.PredictedKB != pr.OracleKB || pr.PredictedKB == 0 {
		t.Errorf("oracle predict = %+v", pr)
	}

	for name, body := range map[string]string{
		"unknown kernel": `{"kernel": "nosuch"}`,
		"missing field":  `{}`,
		"unknown field":  `{"kernel": "tblook", "bogus": 1}`,
		"garbage":        `{{{`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/predict", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Method routing: GET on a POST route is rejected.
	resp2, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status %d, want 405", resp2.StatusCode)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/schedule",
		`{"system": "proposed", "arrivals": 60, "utilization": 0.9, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.System != "proposed" || sr.Jobs != 60 || sr.Completed != 60 {
		t.Errorf("schedule summary = %+v", sr)
	}
	if sr.TotalEnergyNJ <= 0 || sr.TurnaroundP95 < sr.TurnaroundP50 {
		t.Errorf("implausible metrics: %+v", sr)
	}

	// A weighted mix with real-time decoration exercises the full grammar.
	resp, body = postJSON(t, ts.URL+"/v1/schedule",
		`{"arrivals": 40, "scenario": "uniform;mix=tblook*2+a2time;prio=uniform:3;slo=deadline:slack=4"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted schedule: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.DeadlinesTotal != 40 {
		t.Errorf("deadlines_total = %d, want 40", sr.DeadlinesTotal)
	}

	for name, payload := range map[string]string{
		"bad system":      `{"system": "nosuch"}`,
		"zero arrivals":   `{"arrivals": -1}`,
		"huge arrivals":   `{"arrivals": 999999999}`,
		"bad utilization": `{"utilization": 9.5}`,
		"bad kernel mix":  `{"scenario": "uniform;mix=nosuch"}`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestTuneEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/tune", `{"kernel": "tblook", "size_kb": 8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune: status %d, body %s", resp.StatusCode, body)
	}
	var tr TuneResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Explored) == 0 || tr.Best == "" {
		t.Errorf("tune = %+v", tr)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/tune", `{"kernel": "tblook", "size_kb": 3}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad size: status %d, want 400", resp.StatusCode)
	}
}

// TestScheduleBackpressure verifies the 429 + Retry-After contract: with the
// one worker parked and the one queue slot taken, an HTTP schedule request
// must bounce instead of waiting.
func TestScheduleBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	defer close(release)
	busyFn, started := blockingJob(release)
	go s.pool.Submit(context.Background(), busyFn)
	<-started
	queuedFn, _ := blockingJob(release)
	go s.pool.Submit(context.Background(), queuedFn)
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	// High priority clears admission control, so this exercises the literal
	// queue-full contract (low-priority traffic is shed earlier — see
	// TestAdmissionShedding).
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 20, "priority": 99}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, body %s, want 429", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body = %s", body)
	}
	if er.Code != "queue_full" || er.QueueDepth < 1 {
		t.Errorf("429 envelope = %+v, want queue_full with queue_depth >= 1", er)
	}

	snap := s.met.Snapshot()
	if snap.JobsRejected < 1 {
		t.Errorf("jobs_rejected = %d, want >= 1", snap.JobsRejected)
	}
}

// TestRequestTimeout verifies a request that cannot be served within the
// configured timeout returns 504 while the queue is wedged.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})

	release := make(chan struct{})
	defer close(release)
	busyFn, started := blockingJob(release)
	go s.pool.Submit(context.Background(), busyFn)
	<-started

	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 20}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, body %s, want 504", resp.StatusCode, body)
	}
}

// TestShutdownDrains verifies graceful shutdown: a schedule request that is
// already queued when shutdown begins still completes with 200, while later
// submissions are refused with 503. The single worker is parked on a
// controllable blocker so the request is provably in flight when Shutdown
// starts.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	release := make(chan struct{})
	busyFn, started := blockingJob(release)
	go s.pool.Submit(context.Background(), busyFn)
	<-started

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
			strings.NewReader(`{"arrivals": 100}`))
		if err != nil {
			results <- result{status: -1}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{status: resp.StatusCode, body: b}
	}()
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give the drain a moment to begin, then unblock the worker so it can
	// finish the blocker and the queued request.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-results
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status %d, body %s", r.status, r.body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(r.body, &sr); err != nil || sr.Completed != 100 {
		t.Errorf("drained request result: %s", r.body)
	}

	resp, _ := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 10}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown request: status %d, want 503", resp.StatusCode)
	}
}

// TestListenAndServeBindFailures pins ListenAndServe's listener edges on an
// occupied API port: after Shutdown it returns nil without binding, and a
// failed API bind closes the debug server it had already started.
func TestListenAndServeBindFailures(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	s, err := New(testSystem(t), quietConfig(Config{Addr: busy.Addr().String(), DebugAddr: "127.0.0.1:0", Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.ListenAndServe(); err != nil {
		t.Errorf("ListenAndServe after Shutdown: %v, want nil", err)
	}

	var logged bytes.Buffer // written only inside ListenAndServe and Shutdown
	cfg := quietConfig(Config{Addr: busy.Addr().String(), DebugAddr: "127.0.0.1:0", Workers: 1})
	cfg.Logger = log.New(&logged, "", 0)
	s, err = New(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if err := s.ListenAndServe(); err == nil || !strings.Contains(err.Error(), "api listener") {
		t.Fatalf("ListenAndServe on an occupied port: %v, want an api listener error", err)
	}
	m := regexp.MustCompile(`msg=debug-listening addr=(\S+)`).FindStringSubmatch(logged.String())
	if m == nil {
		t.Fatalf("no debug-listening line:\n%s", logged.String())
	}
	if c, err := net.Dial("tcp", m[1]); err == nil {
		c.Close()
		t.Errorf("debug server at %s still accepts connections after the API bind failed", m[1])
	}
}

// TestConcurrentSchedules is the race-detector workload: many concurrent
// POST /v1/schedule requests against a small pool. Run with -race (wired
// into `make check`); every response must be a well-formed 200 or a 429.
func TestConcurrentSchedules(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})

	const inFlight = 64
	statuses := make([]int, inFlight)
	bodies := make([][]byte, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := fmt.Sprintf(`{"system": "proposed", "arrivals": 30, "seed": %d}`, i)
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
				bytes.NewReader([]byte(payload)))
			if err != nil {
				statuses[i] = -1
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	ok := 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
			var sr ScheduleResponse
			if err := json.Unmarshal(bodies[i], &sr); err != nil || sr.Completed != 30 {
				t.Errorf("request %d: bad 200 body %s", i, bodies[i])
			}
		case http.StatusTooManyRequests:
			// Correct backpressure under overload.
		default:
			t.Errorf("request %d: status %d, body %s", i, st, bodies[i])
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}

	snap := s.met.Snapshot()
	ep := snap.Endpoints["schedule"]
	if ep.Count != int64(ok) {
		t.Errorf("schedule latency count = %d, want %d successes", ep.Count, ok)
	}
	if ok > 1 && ep.P95Ms < ep.P50Ms {
		t.Errorf("p95 %v < p50 %v", ep.P95Ms, ep.P50Ms)
	}
	if snap.Requests != int64(inFlight) {
		t.Errorf("requests_total = %d, want %d", snap.Requests, inFlight)
	}
}

// TestMetricsEndpoint spot-checks the /metrics JSON contract.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 5})
	postJSON(t, ts.URL+"/v1/predict", `{"kernel": "tblook"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Workers != 3 || snap.QueueCap != 5 {
		t.Errorf("snapshot gauges = %+v", snap)
	}
	if snap.Endpoints["predict"].Count != 1 {
		t.Errorf("predict count = %d, want 1", snap.Endpoints["predict"].Count)
	}
}

// TestErrorEnvelope asserts the unified {"error", "code"} contract: every
// non-2xx response carries a non-empty message and the stable code for its
// failure class, including the rewritten stdlib 404/405 pages.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	decode := func(t *testing.T, body []byte) ErrorResponse {
		t.Helper()
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error body is not the JSON envelope: %s", body)
		}
		if er.Error == "" || er.Code == "" {
			t.Fatalf("envelope missing fields: %s", body)
		}
		return er
	}

	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"system": "nosuch"}`)
	if resp.StatusCode != http.StatusBadRequest || decode(t, body).Code != "bad_request" {
		t.Errorf("bad request: status %d, body %s", resp.StatusCode, body)
	}

	resp2, err := http.Get(ts.URL + "/v1/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound || decode(t, b).Code != "not_found" {
		t.Errorf("unknown path: status %d, body %s", resp2.StatusCode, b)
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("404 content-type = %q", ct)
	}

	resp3, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed || decode(t, b).Code != "method_not_allowed" {
		t.Errorf("method mismatch: status %d, body %s", resp3.StatusCode, b)
	}
}

// TestScheduleFaults exercises the wire fault plumbing: a request-scoped
// fault plan produces the resilience block in the response and bumps the
// daemon-wide fault counters; a malformed plan is a 400; identical faulted
// requests are reproducible.
func TestScheduleFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	payload := `{"system": "proposed", "arrivals": 300, "seed": 5,
		"faults": {"seed": 9, "transient_mttf_cycles": 2000000, "recovery_cycles": 60000}}`
	resp, body := postJSON(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted schedule: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.FaultInjected {
		t.Fatalf("fault_injected missing from response: %s", body)
	}
	if sr.Completed != sr.Jobs {
		t.Errorf("faulted run lost jobs: %d of %d", sr.Completed, sr.Jobs)
	}

	// Same request, same bytes back: the fault timeline is part of the
	// deterministic contract.
	_, body2 := postJSON(t, ts.URL+"/v1/schedule", payload)
	if !bytes.Equal(body, body2) {
		t.Error("identical faulted requests returned different bodies")
	}

	snap := s.met.Snapshot()
	if snap.FaultedRuns < 2 {
		t.Errorf("faulted_runs = %d, want >= 2", snap.FaultedRuns)
	}

	// An un-faulted request must omit the resilience block entirely.
	_, body3 := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 50}`)
	if bytes.Contains(body3, []byte("fault_")) {
		t.Errorf("fault fields leaked into a fault-free response: %s", body3)
	}

	// Invalid plan: counter noise out of range.
	resp4, body4 := postJSON(t, ts.URL+"/v1/schedule",
		`{"arrivals": 50, "faults": {"counter_noise": 2.0}}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fault plan: status %d, body %s", resp4.StatusCode, body4)
	}
}

// TestScheduleTrace exercises the ?trace=1 decision-audit contract: the
// response grows an inline trace block whose counters agree with the
// summarized metrics, identical traced requests return identical bytes, the
// plain response stays trace-free, and the trace toggle is validated.
func TestScheduleTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	payload := `{"system": "proposed", "arrivals": 80, "seed": 11}`
	resp, body := postJSON(t, ts.URL+"/v1/schedule?trace=1", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced schedule: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Trace == nil {
		t.Fatalf("trace block missing from ?trace=1 response: %s", body)
	}
	if sr.Trace.Events == 0 || len(sr.Trace.Entries) != sr.Trace.Events {
		t.Fatalf("trace block inconsistent: events=%d entries=%d", sr.Trace.Events, len(sr.Trace.Entries))
	}
	if got, want := sr.Trace.Counts["complete"], uint64(sr.Completed); got != want {
		t.Errorf("complete decisions = %d, want %d", got, want)
	}
	if got, want := sr.Trace.Counts["enqueue"], uint64(sr.Jobs); got != want {
		t.Errorf("enqueue decisions = %d, want %d (fault-free run)", got, want)
	}
	for i, e := range sr.Trace.Entries { // decoding checked every kind name
		if e.System != "proposed" {
			t.Fatalf("entry %d not stamped proposed: %+v", i, e)
		}
	}

	// Tracing is deterministic end to end: same request, same bytes.
	_, body2 := postJSON(t, ts.URL+"/v1/schedule?trace=1", payload)
	if !bytes.Equal(body, body2) {
		t.Error("identical traced requests returned different bodies")
	}

	// Tracing must not perturb the run: the summary fields outside the
	// trace block match the untraced run exactly.
	_, plainBody := postJSON(t, ts.URL+"/v1/schedule", payload)
	var plain ScheduleResponse
	if err := json.Unmarshal(plainBody, &plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plainBody, []byte(`"trace"`)) {
		t.Errorf("trace block leaked into an untraced response: %s", plainBody)
	}
	tracedCopy := sr
	tracedCopy.Trace = nil
	if !reflect.DeepEqual(tracedCopy, plain) {
		t.Errorf("tracing changed the schedule summary:\ntraced   %+v\nuntraced %+v", tracedCopy, plain)
	}

	// Unknown toggle values are rejected, valid spellings accepted.
	resp2, body3 := postJSON(t, ts.URL+"/v1/schedule?trace=yes", payload)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("trace=yes: status %d, body %s, want 400", resp2.StatusCode, body3)
	}
	resp3, _ := postJSON(t, ts.URL+"/v1/schedule?trace=false", payload)
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("trace=false: status %d, want 200", resp3.StatusCode)
	}

	// The daemon-wide totals count the two traced runs (not the plain ones).
	snap := s.met.Snapshot()
	if snap.TracedRuns != 2 {
		t.Errorf("traced_runs = %d, want 2", snap.TracedRuns)
	}
	if got, want := snap.TraceDecisions["complete"], 2*uint64(sr.Completed); got != want {
		t.Errorf("cumulative complete decisions = %d, want %d", got, want)
	}
}

// TestDebugTrace exercises the /debug/trace ring-buffer dump in all three
// formats after a traced run has fed the shared ring.
func TestDebugTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dbg.Close)

	get := func(t *testing.T, path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Empty ring first: a well-formed, zero-event dump.
	resp, body := get(t, "/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty /debug/trace: status %d, body %s", resp.StatusCode, body)
	}
	var dump DebugTraceResponse
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Events != 0 || len(dump.Entries) != 0 {
		t.Errorf("empty ring dump = %+v", dump)
	}

	resp2, sb := postJSON(t, ts.URL+"/v1/schedule?trace=1", `{"arrivals": 60, "seed": 4}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("traced schedule: status %d, body %s", resp2.StatusCode, sb)
	}

	resp, body = get(t, "/debug/trace")
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Events == 0 || len(dump.Entries) != dump.Events {
		t.Fatalf("ring dump inconsistent after traced run: %+v", dump)
	}
	if dump.Counts["complete"] != 60 {
		t.Errorf("ring complete count = %d, want 60", dump.Counts["complete"])
	}

	resp, body = get(t, "/debug/trace?format=csv")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content-type = %q", ct)
	}
	lines := bytes.Count(body, []byte("\n"))
	if lines != dump.Events+1 { // header + one row per event
		t.Errorf("csv dump has %d lines, want %d", lines, dump.Events+1)
	}

	resp, body = get(t, "/debug/trace?format=chrome")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("chrome content-type = %q", ct)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome dump is not the trace-event JSON object: %v", err)
	}
	if len(chrome.TraceEvents) <= dump.Events { // events + metadata records
		t.Errorf("chrome dump has %d records, want > %d", len(chrome.TraceEvents), dump.Events)
	}

	resp, body = get(t, "/debug/trace?format=yaml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, body %s, want 400", resp.StatusCode, body)
	}
}
