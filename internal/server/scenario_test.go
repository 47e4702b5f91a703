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

// TestScheduleScenarioValidation pins the scenario-specific 400s: malformed
// specs, the replay source (a server-local file read, refused over the API),
// the jobs cap, and mutual exclusion with the legacy workload knobs.
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
		"replay source": {
			`{"arrivals": 20, "scenario": "replay:file=/tmp/run.csv"}`, "replay is not available"},
		"jobs over cap": {
			`{"arrivals": 20, "scenario": "poisson:jobs=200"}`, "exceed the server cap"},
		"arrivals over cap": {
			`{"arrivals": 200, "scenario": "poisson"}`, "out of range"},
		"kernels conflict": {
			`{"arrivals": 20, "kernels": ["tblook"], "scenario": "poisson"}`, "mutually exclusive"},
		"priority conflict": {
			`{"arrivals": 20, "priority_levels": 2, "scenario": "poisson"}`, "mutually exclusive"},
		"deadline conflict": {
			`{"arrivals": 20, "deadline_slack": 2.5, "scenario": "poisson"}`, "mutually exclusive"},
	}
	for name, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", tc.payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: non-envelope error body %s", name, body)
		}
		if !strings.Contains(er.Error, tc.substr) {
			t.Errorf("%s: error %q missing %q", name, er.Error, tc.substr)
		}
	}

	// A scenario-free request is untouched by the scenario gate.
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"arrivals": 30}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy request: status %d, body %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scenario != "" || sr.Classes != nil {
		t.Errorf("legacy response grew a scenario block: %+v", sr)
	}
}

// TestLegacyFieldsAreTheirSpec pins the translation of the deprecated
// priority_levels/deadline_slack fields: a request carrying them answers
// exactly as the same request spelling their spec in scenario, apart from
// the scenario echo, which stays the request's own.
func TestLegacyFieldsAreTheirSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for legacy, spec := range map[string]string{
		`"priority_levels":3,"deadline_slack":2`: "uniform;prio=uniform:3;slo=deadline:slack=2",
		`"priority_levels":1`:                    "uniform;prio=uniform:1",
		`"deadline_slack":1.5`:                   "uniform;slo=deadline:slack=1.5",
	} {
		var got [2]ScheduleResponse
		for i, fields := range []string{legacy, `"scenario":"` + spec + `"`} {
			resp, body := postJSON(t, ts.URL+"/v1/schedule",
				`{"arrivals":40,"seed":5,"utilization":1.2,"preemptive":true,`+fields+`}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", fields, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &got[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got[0].Scenario != "" || got[1].Scenario != spec {
			t.Errorf("%s: scenario echoes %q and %q, want \"\" and %q", legacy, got[0].Scenario, got[1].Scenario, spec)
		}
		got[1].Scenario = ""
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s answers differently from %s:\n%+v\n%+v", legacy, spec, got[0], got[1])
		}
	}
}
