package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"hetsched"
)

// TestClusterScheduleEndpoint runs a mixed-shape cluster through the wire
// API and checks the per-node accounting adds up.
func TestClusterScheduleEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	payload := `{"nodes": "2*quad;1*4x8", "arrivals": 120, "utilization": 0.8, "seed": 7}`
	resp, body := postJSON(t, ts.URL+"/v1/cluster/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster schedule: status %d, body %s", resp.StatusCode, body)
	}
	var cr ClusterScheduleResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.System != "proposed" || cr.Scorer != "hybrid" || cr.NodeCount != 3 || cr.Cores != 12 {
		t.Errorf("cluster summary = %+v", cr)
	}
	if cr.Jobs != 120 || cr.Completed != 120 {
		t.Errorf("jobs %d completed %d, want 120/120", cr.Jobs, cr.Completed)
	}
	// The echo is the canonical core-size form: "quad" renders as its shape.
	if cr.Nodes != "2*2,4,2x8;4x8" {
		t.Errorf("nodes echo = %q", cr.Nodes)
	}
	routed, completed := 0, 0
	for _, n := range cr.PerNode {
		routed += n.Jobs + n.StolenIn - n.StolenOut
		completed += n.Completed
	}
	if routed != cr.Jobs || completed != cr.Completed {
		t.Errorf("per-node accounting: routed %d completed %d, want %d/%d",
			routed, completed, cr.Jobs, cr.Completed)
	}
	if cr.TotalEnergyNJ <= 0 || cr.TurnaroundP95 < cr.TurnaroundP50 {
		t.Errorf("implausible cluster metrics: %+v", cr)
	}

	// Determinism is part of the wire contract: same request, same bytes.
	_, body2 := postJSON(t, ts.URL+"/v1/cluster/schedule", payload)
	if !bytes.Equal(body, body2) {
		t.Error("identical cluster requests returned different bodies")
	}

	// The run feeds the daemon-wide cluster counters.
	snap := s.met.Snapshot()
	if snap.ClusterRuns != 2 {
		t.Errorf("cluster_runs = %d, want 2", snap.ClusterRuns)
	}
	var nodeJobs int64
	for _, c := range snap.ClusterNodes {
		nodeJobs += c.Jobs
	}
	if nodeJobs != 2*int64(cr.Jobs) {
		t.Errorf("cumulative node jobs = %d, want %d", nodeJobs, 2*cr.Jobs)
	}
	if snap.Endpoints["cluster"].Count != 2 {
		t.Errorf("cluster endpoint count = %d, want 2", snap.Endpoints["cluster"].Count)
	}
}

// TestClusterScheduleValidation walks the 400 paths.
func TestClusterScheduleValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, payload := range map[string]string{
		"bad nodes spec":  `{"nodes": "3*bogus"}`,
		"bad scorer":      `{"scorer": "nosuch"}`,
		"bad system":      `{"system": "nosuch"}`,
		"zero arrivals":   `{"arrivals": -1}`,
		"huge arrivals":   `{"arrivals": 999999999}`,
		"bad utilization": `{"utilization": 9.5}`,
		"bad kernel mix":  `{"scenario": "uniform;mix=nosuch"}`,
		"bad threshold":   `{"steal_threshold": -2}`,
		"bad fault plan":  `{"faults": {"counter_noise": 2.0}}`,
		"unknown field":   `{"bogus": 1}`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/cluster/schedule", payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", name, resp.StatusCode, body)
		}
	}
}

// TestClusterScheduleTrace asserts ?trace=1 inlines the dispatcher's
// route/steal audit — one route decision per job, stamped "cluster" — then
// every node's own events in node order, each job's on the node it was
// finally sent to.
func TestClusterScheduleTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	payload := `{"nodes": "2*quad", "arrivals": 60, "seed": 2}`
	resp, body := postJSON(t, ts.URL+"/v1/cluster/schedule?trace=1", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced cluster schedule: status %d, body %s", resp.StatusCode, body)
	}
	var cr ClusterScheduleResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Trace == nil {
		t.Fatalf("trace block missing from ?trace=1 response: %s", body)
	}
	if got, want := cr.Trace.Counts["route"], uint64(cr.Jobs); got != want {
		t.Errorf("route decisions = %d, want %d", got, want)
	}
	routed := int(cr.Trace.Counts["route"] + cr.Trace.Counts["steal"])
	owner := map[int]int{}
	for i, e := range cr.Trace.Entries {
		if i < routed {
			if e.System != "cluster" || (e.Kind != hetsched.TraceKindRoute && e.Kind != hetsched.TraceKindSteal) {
				t.Fatalf("entry %d is not a dispatcher decision: %+v", i, e)
			}
			owner[e.Job] = e.Core // a steal overrides the route
			continue
		}
		if e.System != "proposed" || e.Node < cr.Trace.Entries[i-1].Node {
			t.Fatalf("entry %d is not a node-local event in node order: %+v", i, e)
		}
		if e.Job >= 0 && owner[e.Job] != e.Node {
			t.Fatalf("entry %d: job %d on node %d, routed to node %d", i, e.Job, e.Node, owner[e.Job])
		}
	}
	if len(cr.Trace.Entries) == routed {
		t.Error("no node-local events")
	}

	// An untraced run must omit the block.
	_, plain := postJSON(t, ts.URL+"/v1/cluster/schedule", payload)
	if bytes.Contains(plain, []byte(`"trace"`)) {
		t.Errorf("trace block leaked into an untraced response: %s", plain)
	}
}

// TestClusterStatus checks the daemon topology report and its counters
// before and after a run.
func TestClusterStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	get := func(t *testing.T) ClusterStatusResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster status: %d", resp.StatusCode)
		}
		var st ClusterStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := get(t)
	if st.Nodes != "4*2,4,2x8" || st.NodeCount != 4 || st.Cores != 16 || st.Scorer != "hybrid" {
		t.Errorf("default topology = %+v", st)
	}
	if st.ClusterRuns != 0 || len(st.NodeCounters) != 0 {
		t.Errorf("fresh daemon has cluster counters: %+v", st)
	}

	resp, body := postJSON(t, ts.URL+"/v1/cluster/schedule", `{"arrivals": 40, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster schedule: status %d, body %s", resp.StatusCode, body)
	}

	st = get(t)
	if st.ClusterRuns != 1 {
		t.Errorf("cluster_runs = %d, want 1", st.ClusterRuns)
	}
	var jobs int64
	for _, c := range st.NodeCounters {
		jobs += c.Jobs
	}
	if jobs != 40 {
		t.Errorf("cumulative node jobs = %d, want 40", jobs)
	}
}
