package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestScheduleScenario drives /v1/schedule with a scenario spec end to end:
// the workload comes from the scenario generator, the SLO layer stamps every
// job with a deadline, and the response carries the scenario/SLO block with
// the canonical spec string.
func TestScheduleScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/schedule",
		`{"system": "proposed", "seed": 4,
		  "scenario": "poisson:jobs=60;slo=deadline:slack=1.5,classes=hi@0.25"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario schedule: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Jobs != 60 || sr.Completed != 60 {
		t.Errorf("jobs=60 override ignored: %+v", sr)
	}
	if sr.Scenario != "poisson:jobs=60;slo=deadline:slack=1.5,classes=hi@0.25" {
		t.Errorf("response scenario = %q, want the canonical spec", sr.Scenario)
	}
	if sr.DeadlinesTotal != 60 {
		t.Errorf("deadlines_total = %d, want 60 (every job SLO-stamped)", sr.DeadlinesTotal)
	}
	wantRate := 0.0
	if sr.DeadlinesTotal > 0 {
		wantRate = float64(sr.DeadlineMisses) / float64(sr.DeadlinesTotal)
	}
	if sr.DeadlineMissRate != wantRate {
		t.Errorf("deadline_miss_rate = %v, want %v", sr.DeadlineMissRate, wantRate)
	}
	total := 0
	for name, c := range sr.Classes {
		if name != "hi" && name != "default" {
			t.Errorf("unexpected SLO class %q", name)
		}
		total += c.Deadlines
	}
	if total != 60 {
		t.Errorf("class deadlines sum to %d, want 60: %+v", total, sr.Classes)
	}
	if _, ok := sr.Classes["hi"]; !ok {
		t.Errorf("classes missing hi: %+v", sr.Classes)
	}

	// The /metrics snapshot accumulates the run's SLO counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.SLORuns < 1 || snap.SLODeadlines < 60 {
		t.Errorf("metrics slo_runs=%d slo_deadlines=%d after a 60-deadline run",
			snap.SLORuns, snap.SLODeadlines)
	}
	if snap.SLOClasses["hi"].Deadlines == 0 {
		t.Errorf("metrics slo_classes missing hi: %+v", snap.SLOClasses)
	}
	if snap.SLOMisses != int64(sr.DeadlineMisses) {
		t.Errorf("metrics slo_misses = %d, response misses = %d", snap.SLOMisses, sr.DeadlineMisses)
	}
}

// TestScheduleScenarioCanonicalizes checks a spec written in non-canonical
// key order comes back in the grammar's canonical form.
func TestScheduleScenarioCanonicalizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/schedule",
		`{"arrivals": 40, "scenario": "bursty:quiet=0.5,rate=0.8,burst=2;slo=deadline"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scenario != "bursty:rate=0.8,burst=2,quiet=0.5;slo=deadline" {
		t.Errorf("scenario not canonicalized: %q", sr.Scenario)
	}
	// No jobs= in the spec: the request's arrivals drive the length.
	if sr.Jobs != 40 || sr.DeadlinesTotal != 40 {
		t.Errorf("jobs=%d deadlines=%d, want 40/40", sr.Jobs, sr.DeadlinesTotal)
	}
}

// TestScheduleScenarioValidation pins the scenario-specific 400s both
// generated endpoints share: malformed specs, the replay source (a
// server-local file read, refused over the API), the jobs cap, and the
// retired workload fields, which are unknown fields now.
func TestScheduleScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxArrivals: 100})

	cases := map[string]struct {
		payload string
		substr  string
	}{
		"malformed spec": {
			`{"arrivals": 20, "scenario": "nosuch:rate=1"}`, "scenario"},
		"bad param": {
			`{"arrivals": 20, "scenario": "poisson:rate=-3"}`, "scenario"},
		"unknown kernel": {
			`{"arrivals": 20, "scenario": "poisson;mix=tblook+nosuch"}`, "unknown kernel"},
		"replay source": {
			`{"arrivals": 20, "scenario": "replay:file=/tmp/run.csv"}`, "replay is not available"},
		"jobs over cap": {
			`{"arrivals": 20, "scenario": "poisson:jobs=200"}`, "exceed the server cap"},
		"arrivals over cap": {
			`{"arrivals": 200, "scenario": "poisson"}`, "out of range"},
		"kernels field": {
			`{"arrivals": 20, "kernels": ["tblook"]}`, `unknown field "kernels"`},
		"priority_levels field": {
			`{"arrivals": 20, "priority_levels": 2}`, `unknown field "priority_levels"`},
		"deadline_slack field": {
			`{"arrivals": 20, "deadline_slack": 2.5}`, `unknown field "deadline_slack"`},
	}
	for _, endpoint := range []string{"/v1/schedule", "/v1/cluster/schedule"} {
		for name, tc := range cases {
			resp, body := postJSON(t, ts.URL+endpoint, tc.payload)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (body %s)", endpoint, name, resp.StatusCode, body)
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("%s %s: non-envelope error body %s", endpoint, name, body)
			}
			if !strings.Contains(er.Error, tc.substr) {
				t.Errorf("%s %s: error %q missing %q", endpoint, name, er.Error, tc.substr)
			}
		}
	}

	// A scenario-free request is untouched by the scenario gate.
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 30}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario-free request: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scenario != "" || sr.Classes != nil {
		t.Errorf("scenario-free response grew a scenario block: %+v", sr)
	}
}

// TestClusterOfOneNodeMatchesSchedule is the library's single-node
// equivalence on the wire: /v1/cluster/schedule with one quad node answers
// the body it shares with /v1/schedule with the same run — jobs, makespan,
// turnaround tail, every energy component, and the whole scenario echo and
// deadline/SLO block — for an SLO class scenario, a prio= scenario with
// preemption, and a kernel mix under a stochastic fault plan.
func TestClusterOfOneNodeMatchesSchedule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		body  string
		check func(ScheduleResponse) bool
	}{
		"bursty slo classes": {
			`{"seed":3,"utilization":1.2,"scenario":"bursty:jobs=80;slo=deadline:slack=1.5,classes=hi@0.3+lo@0.2@3"}`,
			func(r ScheduleResponse) bool { return r.DeadlinesTotal == 80 && len(r.Classes) == 3 },
		},
		"prio preemptive": {
			`{"arrivals":60,"seed":5,"utilization":1.3,"preemptive":true,"scenario":"poisson;prio=uniform:4"}`,
			func(r ScheduleResponse) bool { return r.Preemptions > 0 },
		},
		"mix under faults": {
			`{"arrivals":60,"seed":3,"scenario":"uniform;mix=a2time*3+tblook+matrix",` +
				`"faults":{"seed":3,"transient_mttf_cycles":200000,"recovery_cycles":5000}}`,
			func(r ScheduleResponse) bool { return r.FaultInjected && r.JobsRedispatched > 0 },
		},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/schedule status %d, body %s", name, resp.StatusCode, body)
		}
		var one ScheduleResponse
		if err := json.Unmarshal(body, &one); err != nil {
			t.Fatal(err)
		}
		if !tc.check(one) {
			t.Errorf("%s: the run does not exercise what the case is for: %+v", name, one)
		}
		resp, body = postJSON(t, ts.URL+"/v1/cluster/schedule", `{"nodes":"quad",`+tc.body[1:])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/cluster/schedule status %d, body %s", name, resp.StatusCode, body)
		}
		var cl ClusterScheduleResponse
		if err := json.Unmarshal(body, &cl); err != nil {
			t.Fatal(err)
		}
		type run struct {
			Jobs, Completed                      int
			Makespan, Turnaround                 uint64
			P50, P95, P99                        uint64
			Total, Idle, Dyn, Static, Core, Prof float64
			SLO                                  SLOWire
		}
		got := run{cl.Jobs, cl.Completed, cl.MakespanCycles, cl.TurnaroundCycles,
			cl.TurnaroundP50, cl.TurnaroundP95, cl.TurnaroundP99,
			cl.TotalEnergyNJ, cl.IdleEnergyNJ, cl.DynamicEnergyNJ, cl.StaticEnergyNJ, cl.CoreEnergyNJ, cl.ProfilingEnergyNJ,
			cl.SLOWire}
		want := run{one.Jobs, one.Completed, one.MakespanCycles, one.TurnaroundCycles,
			one.TurnaroundP50, one.TurnaroundP95, one.TurnaroundP99,
			one.TotalEnergyNJ, one.IdleEnergyNJ, one.DynamicEnergyNJ, one.StaticEnergyNJ, one.CoreEnergyNJ, one.ProfilingEnergyNJ,
			one.SLOWire}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the one-node cluster answers differently:\ncluster  %+v\nschedule %+v", name, got, want)
		}
		if cl.NodeCount != 1 || cl.Steals != 0 {
			t.Errorf("%s: node_count %d, steals %d; want one node, no steals", name, cl.NodeCount, cl.Steals)
		}
	}
}
