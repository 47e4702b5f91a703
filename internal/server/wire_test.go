package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// scheduleEndpoints are the four schedule routes, indexed by wireCase.endpoint.
var scheduleEndpoints = [...]string{
	"/v1/schedule",
	"/v1/schedule/batch",
	"/v1/cluster/schedule",
	"/v1/cluster/schedule/batch",
}

// wireCase is one request to a schedule endpoint: the route index, the raw
// ?trace= value (empty sends none) and the body.
type wireCase struct {
	name     string
	endpoint int
	trace    string
	body     string
}

// wireMaxArrivals is the golden server's cap: the 500-arrival defaults
// still run, and an over-cap batch stays a small body.
const wireMaxArrivals = 600

// wireCases covers each schedule endpoint's successful request shapes, every
// single-field 400 and bodies carrying two errors (which pin the order the
// checks report in). Timing-dependent 429s and 504s are left out.
var wireCases = []wireCase{
	{"schedule/defaults", 0, "", `{}`},
	{"schedule/kernels", 0, "", `{"arrivals":30,"seed":2,"kernels":["tblook","a2time","tblook"]}`},
	{"schedule/priorities", 0, "", `{"arrivals":40,"seed":5,"priority_levels":3,"deadline_slack":2,"preemptive":true}`},
	{"schedule/scenario", 0, "", `{"seed":4,"scenario":"poisson:jobs=60;slo=deadline:slack=1.5,classes=hi@0.25"}`},
	{"schedule/scenario-arrivals", 0, "", `{"arrivals":40,"scenario":"bursty:quiet=0.5,rate=0.8,burst=2;slo=deadline"}`},
	{"schedule/faults", 0, "", `{"arrivals":60,"seed":3,"faults":{"seed":3,"transient_mttf_cycles":200000,"recovery_cycles":5000}}`},
	{"schedule/trace", 0, "1", `{"arrivals":6,"seed":11}`},
	{"schedule/trace-false", 0, "false", `{"arrivals":6,"seed":11,"priority":2}`},
	{"schedule/bad-system", 0, "", `{"system":"nosuch"}`},
	{"schedule/zero-arrivals", 0, "", `{"arrivals":0}`},
	{"schedule/over-cap", 0, "", `{"arrivals":601}`},
	{"schedule/bad-utilization", 0, "", `{"utilization":1.6}`},
	{"schedule/negative-levels", 0, "", `{"arrivals":20,"priority_levels":-1}`},
	{"schedule/negative-slack", 0, "", `{"arrivals":20,"deadline_slack":-0.5}`},
	{"schedule/bad-scenario", 0, "", `{"arrivals":20,"scenario":"nosuch:rate=1"}`},
	{"schedule/scenario-conflict", 0, "", `{"arrivals":20,"kernels":["tblook"],"scenario":"poisson"}`},
	{"schedule/scenario-replay", 0, "", `{"arrivals":20,"scenario":"replay:file=/tmp/run.csv"}`},
	{"schedule/scenario-over-cap", 0, "", `{"arrivals":20,"scenario":"poisson:jobs=700"}`},
	{"schedule/bad-faults", 0, "", `{"arrivals":20,"faults":{"counter_noise":2.0}}`},
	{"schedule/bad-kernel", 0, "", `{"arrivals":20,"kernels":["nosuch"]}`},
	{"schedule/negative-priority", 0, "", `{"arrivals":20,"priority":-1}`},
	{"schedule/bad-trace", 0, "yes", `{"arrivals":20}`},
	{"schedule/unknown-field", 0, "", `{"arrivals":20,"bogus":1}`},
	{"schedule/trailing-data", 0, "", `{"arrivals":20} {}`},
	{"schedule/not-json", 0, "", `arrivals=20`},
	{"schedule/two-errors-system-utilization", 0, "", `{"system":"nosuch","utilization":9}`},
	{"schedule/two-errors-kernel-priority", 0, "", `{"arrivals":20,"kernels":["nosuch"],"priority":-1}`},
	{"schedule/two-errors-faults-kernel", 0, "", `{"arrivals":20,"faults":{"counter_noise":2.0},"kernels":["nosuch"]}`},
	{"schedule/two-errors-priority-trace", 0, "yes", `{"arrivals":20,"priority":-1}`},

	{"batch/defaults", 1, "", `{"jobs":[{"kernel":"tblook"},{"kernel":"a2time"},{"kernel":"tblook"}]}`},
	{"batch/explicit-arrivals", 1, "", `{"system":"energy-centric","jobs":[{"kernel":"tblook","arrival_cycle":0},{"kernel":"aifftr","arrival_cycle":500},{"kernel":"a2time","arrival_cycle":100}]}`},
	{"batch/priorities", 1, "", `{"preemptive":true,"priority":3,"jobs":[{"kernel":"tblook","priority":1},{"kernel":"a2time","priority":4},{"kernel":"aifftr","scale":2}]}`},
	{"batch/row-errors", 1, "", `{"jobs":[{"kernel":"tblook"},{"kernel":"nosuch"},{},{"kernel":"a2time","priority":-2},{"kernel":"aifftr","scale":99},{"kernel":"a2time","data_seed":4}]}`},
	{"batch/all-rejected", 1, "", `{"jobs":[{"kernel":"nosuch"},{"kernel":"tblook","iterations":5000}]}`},
	{"batch/trace-ignored", 1, "yes", `{"jobs":[{"kernel":"tblook"}]}`},
	{"batch/mixed-arrivals", 1, "", `{"jobs":[{"kernel":"tblook","arrival_cycle":5},{"kernel":"a2time"}]}`},
	{"batch/empty", 1, "", `{"jobs":[]}`},
	{"batch/over-cap", 1, "", `{"jobs":[` + strings.Repeat(`{"kernel":"a2time"},`, wireMaxArrivals) + `{"kernel":"a2time"}]}`},
	{"batch/bad-system", 1, "", `{"system":"nosuch","jobs":[{"kernel":"tblook"}]}`},
	{"batch/bad-utilization", 1, "", `{"utilization":-1,"jobs":[{"kernel":"tblook"}]}`},
	{"batch/negative-priority", 1, "", `{"priority":-1,"jobs":[{"kernel":"a2time","priority":-1}]}`},
	{"batch/unknown-field", 1, "", `{"jobs":[{"kernel":"tblook","bogus":1}]}`},
	{"batch/trailing-data", 1, "", `{"jobs":[{"kernel":"tblook"}]} {"jobs":[]}`},
	{"batch/two-errors-system-empty", 1, "", `{"system":"nosuch","jobs":[]}`},
	{"batch/two-errors-empty-utilization", 1, "", `{"utilization":7,"jobs":[]}`},

	{"cluster/defaults", 2, "", `{}`},
	{"cluster/topology", 2, "", `{"nodes":"2*quad;1*4x8","scorer":"energy","arrivals":80,"seed":3,"kernels":["tblook","a2time"],"steal_threshold":2}`},
	{"cluster/no-stealing", 2, "", `{"nodes":"3*quad","scorer":"roundrobin","arrivals":60,"disable_stealing":true,"priority":1}`},
	{"cluster/faults", 2, "", `{"nodes":"2*quad","arrivals":60,"seed":3,"faults":{"seed":3,"transient_mttf_cycles":200000,"recovery_cycles":5000}}`},
	{"cluster/trace", 2, "true", `{"nodes":"2*quad","arrivals":8,"seed":2}`},
	{"cluster/bad-nodes", 2, "", `{"nodes":"3*bogus"}`},
	{"cluster/bad-scorer", 2, "", `{"scorer":"nosuch"}`},
	{"cluster/bad-system", 2, "", `{"system":"nosuch"}`},
	{"cluster/negative-arrivals", 2, "", `{"arrivals":-1}`},
	{"cluster/bad-utilization", 2, "", `{"utilization":9.5}`},
	{"cluster/negative-threshold", 2, "", `{"arrivals":20,"steal_threshold":-2}`},
	{"cluster/bad-faults", 2, "", `{"arrivals":20,"faults":{"counter_noise":2.0}}`},
	{"cluster/bad-kernel", 2, "", `{"arrivals":20,"kernels":["nosuch"]}`},
	{"cluster/negative-priority", 2, "", `{"arrivals":20,"priority":-3}`},
	{"cluster/bad-trace", 2, "2", `{"arrivals":20}`},
	{"cluster/unknown-field", 2, "", `{"bogus":1}`},
	{"cluster/two-errors-system-nodes", 2, "", `{"system":"nosuch","nodes":"3*bogus"}`},
	{"cluster/two-errors-threshold-kernel", 2, "", `{"arrivals":20,"steal_threshold":-1,"kernels":["nosuch"]}`},

	{"cluster-batch/defaults", 3, "", `{"jobs":[{"kernel":"tblook"},{"kernel":"a2time"},{"kernel":"aifftr"},{"kernel":"tblook","data_seed":3}]}`},
	{"cluster-batch/explicit-arrivals", 3, "", `{"nodes":"2*quad","scorer":"balance","jobs":[{"kernel":"tblook","arrival_cycle":0},{"kernel":"aifftr","arrival_cycle":0},{"kernel":"a2time","arrival_cycle":900}]}`},
	{"cluster-batch/row-errors", 3, "", `{"nodes":"2*quad","steal_threshold":1,"jobs":[{"kernel":"tblook"},{"kernel":"nosuch"},{"kernel":"a2time","scale":-1}]}`},
	{"cluster-batch/all-rejected", 3, "", `{"nodes":"1*4x8","jobs":[{"kernel":"nosuch"},{}]}`},
	{"cluster-batch/mixed-arrivals", 3, "", `{"jobs":[{"kernel":"tblook"},{"kernel":"a2time","arrival_cycle":5}]}`},
	{"cluster-batch/empty", 3, "", `{}`},
	{"cluster-batch/bad-nodes", 3, "", `{"nodes":"x","jobs":[{"kernel":"tblook"}]}`},
	{"cluster-batch/negative-threshold", 3, "", `{"steal_threshold":-1,"jobs":[{"kernel":"tblook"}]}`},
	{"cluster-batch/negative-priority", 3, "", `{"priority":-1,"jobs":[{"kernel":"a2time","priority":-1}]}`},
	{"cluster-batch/trailing-data", 3, "", `{"jobs":[{"kernel":"tblook"}]}x`},
	{"cluster-batch/two-errors-utilization-threshold", 3, "", `{"utilization":2,"steal_threshold":-1,"jobs":[{"kernel":"tblook"}]}`},
	{"cluster-batch/two-errors-threshold-empty", 3, "", `{"steal_threshold":-1,"jobs":[]}`},

	{"schedule/trailing-bracket", 0, "", `{"arrivals":20}]`},
	{"batch/trailing-brace", 1, "", `{"jobs":[{"kernel":"tblook"}]}}`},

	// The legacy priority/deadline fields, each alone, and preemptive on a
	// class scenario: the request shapes the spec translation must keep.
	{"schedule/deadline-slack", 0, "", `{"arrivals":40,"seed":6,"utilization":1.2,"deadline_slack":1.5}`},
	{"schedule/priority-levels", 0, "", `{"arrivals":40,"seed":7,"utilization":1.3,"priority_levels":4}`},
	{"schedule/priority-levels-one", 0, "", `{"arrivals":30,"seed":8,"utilization":1.2,"priority_levels":1}`},
	{"schedule/scenario-preemptive", 0, "", `{"seed":4,"utilization":1.3,"preemptive":true,"scenario":"poisson:jobs=80;slo=deadline:slack=1.5,classes=hi@0.3"}`},
	{"cluster-batch/priorities", 3, "", `{"nodes":"quad","jobs":[` + batchPriorityRows + `]}`},
}

// batchPriorityRows are twelve simultaneous arrivals, every third one at
// priority 5: enough contention on one quad-core node that the queue
// order the priorities set shows in the schedule.
var batchPriorityRows = strings.TrimSuffix(strings.Repeat(
	`{"kernel":"tblook","arrival_cycle":0},{"kernel":"a2time","arrival_cycle":0},{"kernel":"aifftr","arrival_cycle":0,"priority":5},`, 4), ",")

// request builds the case's HTTP request.
func (c wireCase) request() *http.Request {
	target := scheduleEndpoints[c.endpoint]
	if c.trace != "" {
		target += "?" + url.Values{"trace": {c.trace}}.Encode()
	}
	return httptest.NewRequest(http.MethodPost, target, strings.NewReader(c.body))
}

// TestScheduleWireGolden pins the status and body of every wireCases
// request, one line per case in request order, so a change to the schedule
// pipeline that alters any response shows up as a golden diff. Every case
// runs on one fresh server, so the batch rows' characterization sources
// (computed, then memory) are deterministic too. Regenerate with
// `go test ./internal/server -run ScheduleWireGolden -update`.
func TestScheduleWireGolden(t *testing.T) {
	s, err := New(testSystem(t), quietConfig(Config{Workers: 2, MaxArrivals: wireMaxArrivals}))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range wireCases {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, c.request())
		var body bytes.Buffer
		if err := json.Compact(&body, rec.Body.Bytes()); err != nil {
			t.Fatalf("%s: non-JSON body %q: %v", c.name, rec.Body.Bytes(), err)
		}
		fmt.Fprintf(&got, "%s %d %s\n", c.name, rec.Code, body.Bytes())
	}

	path := filepath.Join("testdata", "schedule_wire.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/server -run ScheduleWireGolden -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, got %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d drifted from golden.\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// fuzzServer is the once-per-process server FuzzScheduleEndpoints drives;
// its small arrivals cap keeps every accepted run short.
var (
	fuzzOnce   sync.Once
	fuzzServer *Server
	fuzzErr    error
)

// FuzzScheduleEndpoints serves arbitrary bodies and ?trace= values to the
// four schedule endpoints. Whatever the payload, the answer is a 2xx or
// 4xx with a JSON body: a 5xx would blame the server for a bad request,
// and a panic would take the daemon down. Seeded from wireCases.
func FuzzScheduleEndpoints(f *testing.F) {
	for _, c := range wireCases {
		f.Add(uint8(c.endpoint), c.trace, []byte(c.body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, trace string, body []byte) {
		fuzzOnce.Do(func() {
			fuzzServer, fuzzErr = New(testSystem(t), quietConfig(Config{Workers: 2, MaxArrivals: 64}))
		})
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		c := wireCase{endpoint: int(endpoint) % len(scheduleEndpoints), trace: trace, body: string(body)}
		rec := httptest.NewRecorder()
		fuzzServer.Handler().ServeHTTP(rec, c.request())
		if class := rec.Code / 100; class != 2 && class != 4 {
			t.Fatalf("%s: status %d, body %s", scheduleEndpoints[c.endpoint], rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: status %d with a non-JSON body %q", scheduleEndpoints[c.endpoint], rec.Code, rec.Body.Bytes())
		}
	})
}

// TestPayloadFailuresAreBadRequests pins the answers to payloads that once
// failed as 5xx or hung: a utilization so low the arrival horizon overflows
// the cycle clock, a fault plan that kills jobs faster than they can run,
// and a batch row whose kernel variant runs past the instruction budget.
func TestPayloadFailuresAreBadRequests(t *testing.T) {
	s, err := New(testSystem(t), quietConfig(Config{Workers: 2, MaxArrivals: 64}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wireCase{
		{"horizon overflow", 0, "", `{"arrivals":20,"utilization":1e-300}`},
		{"cluster horizon overflow", 2, "", `{"arrivals":20,"utilization":1e-300}`},
		{"no progress", 0, "", `{"arrivals":20,"faults":{"seed":3,"transient_mttf_cycles":1000,"recovery_cycles":1}}`},
		{"cluster no progress", 2, "", `{"nodes":"2*quad","arrivals":20,"faults":{"seed":3,"transient_mttf_cycles":1000,"recovery_cycles":1}}`},
		{"over budget", 1, "", `{"jobs":[{"kernel":"tblook"},{"kernel":"tblook","scale":16,"iterations":1024}]}`},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, c.request())
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", c.name, rec.Code, rec.Body.Bytes())
		}
	}
}
