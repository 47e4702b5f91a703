package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleEvents is a small stream exercising every kind and every field.
func sampleEvents() []Event {
	return []Event{
		{Cycle: 0, Kind: KindEnqueue, System: "proposed", Job: 0, App: 3, Core: -1},
		{Cycle: 10, Kind: KindDispatch, System: "proposed", Job: 0, App: 3, Core: 3, Config: "8KB_4W_64B", EnergyNJ: 1234.5, Profiling: true},
		{Cycle: 5000, Kind: KindProfile, System: "proposed", Job: 0, App: 3, Core: 3, Config: "8KB_4W_64B", Start: 10},
		{Cycle: 5000, Kind: KindPredict, System: "proposed", Job: 0, App: 3, Core: -1, SizeKB: 4, Detail: "votes=2KB:3,4KB:25,8KB:2"},
		{Cycle: 5000, Kind: KindTune, System: "proposed", Job: -1, App: 3, Core: 3, Config: "4KB_1W_16B", EnergyNJ: 999.25, Accepted: true},
		{Cycle: 6000, Kind: KindStall, System: "proposed", Job: 1, App: 3, Core: 2, Config: "4KB_2W_32B", EnergyNJ: 50, AltEnergyNJ: 75, Accepted: true},
		{Cycle: 7000, Kind: KindFault, System: "proposed", Job: -1, App: -1, Core: 1, Detail: "crash"},
		{Cycle: 7000, Kind: KindKill, System: "proposed", Job: 2, App: 5, Core: 1, Config: "2KB_1W_16B", Start: 6500, EnergyNJ: 42.125},
		{Cycle: 9000, Kind: KindComplete, System: "proposed", Job: 2, App: 5, Core: 0, Config: "2KB_1W_16B", Start: 7500},
		{Cycle: 9500, Kind: KindRoute, System: "cluster", Job: 3, App: 4, Core: 2, SizeKB: 8, EnergyNJ: 321.5, Detail: "scorer=hybrid cand=3/4"},
		{Cycle: 9800, Kind: KindSteal, System: "cluster", Job: 4, App: 1, Core: 1, Start: 3, Detail: "victim=3 depth=2"},
		{Cycle: 9900, Kind: KindSLO, System: "proposed", Job: 5, App: 2, Core: 0, Config: "8KB_2W_32B", Start: 12000, EnergyNJ: 60, AltEnergyNJ: 80, Accepted: true, Detail: "deadline=11000"},
	}
}

func record(evs []Event) *Recorder {
	r := NewRecorder()
	for _, e := range evs {
		r.Record(e)
	}
	return r
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k, err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

func TestRecorderSequencesAndCounts(t *testing.T) {
	r := record(sampleEvents())
	evs := r.Events()
	if len(evs) != len(sampleEvents()) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(sampleEvents()))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	for _, k := range Kinds() {
		if got := r.Count(k); got != 1 {
			t.Errorf("Count(%v) = %d, want 1", k, got)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("unbounded recorder dropped %d", r.Dropped())
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Cycle: uint64(i), Kind: KindEnqueue, Job: i, App: i, Core: -1})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("ring event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped() = %d, want 6", r.Dropped())
	}
	if r.Count(KindEnqueue) != 10 {
		t.Errorf("Count survives eviction: got %d, want 10", r.Count(KindEnqueue))
	}
}

// TestForkMerge pins Merge's contract: recording a prefix into a ring and
// merging Forks of it holds exactly what recording everything into the
// ring directly would — sequence numbers, evictions, per-kind counts —
// with each merged event tagged by its node.
func TestForkMerge(t *testing.T) {
	evs := sampleEvents()
	for _, capacity := range []int{0, 3, 5, 100} {
		direct, merged := NewRing(capacity), NewRing(capacity)
		if capacity == 0 {
			direct, merged = NewRecorder(), NewRecorder()
		}
		for _, e := range evs[:2] {
			direct.Record(e)
			merged.Record(e)
		}
		for node, part := range [][]Event{evs[2:9], nil, evs[9:]} {
			fork := merged.Fork()
			for _, e := range part {
				direct.Record(e)
				fork.Record(e)
			}
			merged.Merge(fork, node)
			merged.Merge(nil, node)
		}
		want, got := direct.Events(), merged.Events()
		for i := range got {
			if got[i].Node != 0 && got[i].Node != 2 {
				t.Fatalf("capacity %d: event %d tagged node %d", capacity, i, got[i].Node)
			}
			if got[i].Seq >= 9 != (got[i].Node == 2) {
				t.Errorf("capacity %d: event seq %d tagged node %d", capacity, got[i].Seq, got[i].Node)
			}
			got[i].Node = 0
		}
		if !reflect.DeepEqual(got, want) || merged.Dropped() != direct.Dropped() {
			t.Errorf("capacity %d: merged %v (dropped %d), direct %v (dropped %d)",
				capacity, got, merged.Dropped(), want, direct.Dropped())
		}
		for _, k := range Kinds() {
			if merged.Count(k) != direct.Count(k) {
				t.Errorf("capacity %d: Count(%v) merged %d, direct %d", capacity, k, merged.Count(k), direct.Count(k))
			}
		}
	}
}

func TestSharedRingMerge(t *testing.T) {
	g := NewSharedRing(100)
	g.Append(sampleEvents()[:4])
	g.Append(sampleEvents()[4:])
	if got := len(g.Snapshot()); got != len(sampleEvents()) {
		t.Fatalf("shared ring holds %d events, want %d", got, len(sampleEvents()))
	}
	if g.Count(KindStall) != 1 {
		t.Errorf("shared ring Count(stall) = %d, want 1", g.Count(KindStall))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	evs := record(sampleEvents()).Events()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Errorf("CSV round trip drifted:\n got %+v\nwant %+v", back, evs)
	}
}

func TestCSVRoundTripExtremes(t *testing.T) {
	evs := []Event{{
		Seq: 0, Cycle: math.MaxUint64, Kind: KindTune, System: "a,b\"c",
		Job: -1, App: math.MaxInt32, Core: -1, Config: "8KB_4W_64B",
		EnergyNJ: 1e-300, AltEnergyNJ: math.MaxFloat64,
		Detail: "line1\nline2, with commas",
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Errorf("extreme round trip drifted:\n got %+v\nwant %+v", back, evs)
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c\n",
		"bad kind":     strings.Join(csvHeader, ",") + "\n0,0,warp,s,0,0,0,c,0,0,0,0,false,false,d\n",
		"bad float":    strings.Join(csvHeader, ",") + "\n0,0,tune,s,0,0,0,c,0,0,zap,0,false,false,d\n",
		"short row":    strings.Join(csvHeader, ",") + "\n0,0,tune\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV accepted %q", name, in)
		}
	}
}

// TestWriteChromeStructure validates the exporter against the trace-event
// format Perfetto requires: a JSON object with a traceEvents array whose
// entries all carry name/ph/pid/tid, where "X" events have ts+dur and
// instant events a scope.
func TestWriteChromeStructure(t *testing.T) {
	evs := record(sampleEvents()).Events()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}
	phases := map[string]int{}
	for i, ce := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ce[key]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, key, ce)
			}
		}
		ph := ce["ph"].(string)
		phases[ph]++
		switch ph {
		case "X":
			if _, ok := ce["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ce)
			}
		case "i":
			if ce["s"] != "t" {
				t.Errorf("instant event missing thread scope: %v", ce)
			}
		case "M":
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	// The sample stream has 3 interval events (profile, kill, complete),
	// 9 instants (incl. the cluster route/steal pair and the SLO-forced
	// migration), and metadata for the proposed + cluster processes and
	// their threads.
	if phases["X"] != 3 || phases["i"] != 9 || phases["M"] == 0 {
		t.Errorf("phase census %v, want 3 X / 9 i / >0 M", phases)
	}
}

// TestWriteChromeDeterministic pins byte-level determinism: the export is a
// pure function of the event slice.
func TestWriteChromeDeterministic(t *testing.T) {
	evs := record(sampleEvents()).Events()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same events differ")
	}
	if strings.Contains(a.String(), "displayTime") {
		t.Error("unexpected wall-clock field in export")
	}
}
