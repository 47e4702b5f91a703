// Package trace is the scheduler's decision-audit recorder: a cycle-stamped
// event log of everything the simulator decides — job lifecycle (enqueue,
// dispatch, completion), the profiling window, the ANN prediction with its
// input features and per-size member votes, every Figure 5 tuning step with
// the accept/reject verdict, the Section IV.E energy-advantageous
// stall-or-migrate comparison with both energies, and fault kills/re-queues.
//
// Determinism contract: events are stamped with simulated-time cycles only —
// never wall clock — and recording happens on the single-threaded simulator
// event loop, so a fixed (workload, seed, plan) produces the identical event
// stream at any worker count. A nil *Recorder disables recording entirely:
// every emission site in internal/core is guarded by a nil check, making the
// disabled path a proven no-op (bit-identical metrics, zero allocations).
//
// Sinks: an unbounded in-memory log (NewRecorder), a bounded ring that keeps
// the newest events (NewRing), and a mutex-guarded shared ring for the
// daemon (NewSharedRing). Exporters render Chrome trace-event JSON
// (WriteChrome; loadable in Perfetto / chrome://tracing) and a flat CSV
// (WriteCSV) that ReadCSV parses back losslessly.
package trace

import (
	"fmt"
	"sync"
)

// Kind classifies one recorded event.
type Kind int

// The event taxonomy (see DESIGN.md §11).
const (
	// KindEnqueue marks a job's arrival into the ready queue (or its
	// re-queue after a fault kill).
	KindEnqueue Kind = iota
	// KindDispatch marks an execution starting on a core; EnergyNJ carries
	// the upfront execution-energy charge.
	KindDispatch
	// KindProfile marks a completed profiling window [Start, Cycle] on the
	// profiling core.
	KindProfile
	// KindPredict records the best-size prediction made from a profiling
	// run: SizeKB is the predicted size, Detail carries the (possibly
	// noise-perturbed) input features and, for ensemble predictors, the
	// per-size member vote counts.
	KindPredict
	// KindTune is one Figure 5 tuning step: Config was executed, EnergyNJ
	// observed, and Accepted reports whether it improved the tuner's best.
	KindTune
	// KindStall is the energy-advantageous decision of Section IV.E:
	// EnergyNJ is the stall-side energy (best-core execution + candidate
	// idle leakage over the wait window), AltEnergyNJ the candidate
	// migration energy, and Accepted is true when the job stalled.
	KindStall
	// KindFault is one applied fault-injection event; Detail names the
	// fault kind.
	KindFault
	// KindKill marks an execution killed by a core crash; EnergyNJ is the
	// wasted (already-executed) energy. The job's re-queue follows as a
	// KindEnqueue event.
	KindKill
	// KindComplete marks an execution finishing: the interval
	// [Start, Cycle] on core Core in configuration Config.
	KindComplete
	// KindRoute is a cluster dispatcher decision: job Job was routed to
	// node Core (the node index rides the core field at cluster level);
	// SizeKB is the predicted best size used for affinity, EnergyNJ the
	// winning node's score, and Detail "scorer=<name> cand=<k>/<n>": k of
	// the n nodes were candidates, those with a surviving core of the
	// predicted size; " relaxed" is appended when no node had one and the
	// k candidates are the nodes with any surviving core.
	KindRoute
	// KindSteal is one cross-node work-steal: job Job moved from the
	// victim node (Start holds its index) to the thief node Core.
	KindSteal
	// KindSLO is an SLO-forced migration: the energy-advantageous rule
	// said stall, but stalling was projected to miss the job's deadline.
	// EnergyNJ is the stall-side energy, AltEnergyNJ the forced
	// candidate's migration energy, Start the projected stall-side
	// completion cycle, and Detail carries the deadline.
	KindSLO

	kindCount // sentinel
)

var kindNames = [kindCount]string{
	"enqueue", "dispatch", "profile", "predict", "tune",
	"stall", "fault", "kill", "complete", "route", "steal", "slo",
}

// String names the kind as used in CSV files and metric keys.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText implements encoding.TextMarshaler: a kind travels by name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler via ParseKind.
func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseKind(string(text))
	return err
}

// Kinds returns every event kind in canonical order — the deterministic
// iteration order for counters and metric export.
func Kinds() []Kind {
	out := make([]Kind, kindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if s == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one recorded scheduling decision or lifecycle transition. Fields
// beyond (Seq, Cycle, Kind, System) are kind-specific; unused int fields
// hold -1 (Job/App/Core) or 0, unused strings are empty.
type Event struct {
	// Seq is the recording-order sequence number assigned by the Recorder.
	Seq uint64 `json:"seq"`
	// Cycle is the simulated time of the event (for interval kinds, the
	// interval end).
	Cycle uint64 `json:"cycle"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// System names the simulated system that emitted the event ("base",
	// "proposed", ...).
	System string `json:"system,omitempty"`
	// Job is the workload job index (-1 when not job-bound).
	Job int `json:"job"`
	// App is the application ID (-1 when not app-bound).
	App int `json:"app"`
	// Core is the core ID (-1 when not core-bound).
	Core int `json:"core"`
	// Config is the cache configuration in the paper's notation
	// ("8KB_4W_64B"; empty when not applicable).
	Config string `json:"config,omitempty"`
	// Start is the interval start for profile/kill/complete events.
	Start uint64 `json:"start,omitempty"`
	// SizeKB is the predicted best cache size (predict events).
	SizeKB int `json:"size_kb,omitempty"`
	// EnergyNJ is the kind's primary energy quantity in nanojoules.
	EnergyNJ float64 `json:"energy_nj,omitempty"`
	// AltEnergyNJ is the comparison energy (stall events: the migration
	// candidate's execution energy).
	AltEnergyNJ float64 `json:"alt_energy_nj,omitempty"`
	// Accepted reports the decision outcome: a tuning step that improved
	// the best, or a stall decision that chose to stall.
	Accepted bool `json:"accepted,omitempty"`
	// Profiling marks dispatch/complete events of profiling runs.
	Profiling bool `json:"profiling,omitempty"`
	// Detail carries kind-specific diagnostics (prediction features and
	// votes, fault kind names).
	Detail string `json:"detail,omitempty"`
	// Node is the cluster node a node-local event came from (0 on a bare
	// simulator run, and on the dispatcher's route/steal events, whose
	// Core names the node).
	Node int `json:"node,omitempty"`
}

// Recorder accumulates events for one simulation run. It is NOT
// goroutine-safe — it is designed to ride the single-threaded simulator
// event loop; use SharedRing to merge finished recordings across runs.
// A nil *Recorder is the disabled state: callers guard every emission with
// a nil check.
type Recorder struct {
	system  string
	limit   int // 0 = unbounded; otherwise a ring keeping the newest limit
	events  []Event
	head    int // ring read position once wrapped
	seq     uint64
	dropped uint64
	counts  [kindCount]uint64
}

// NewRecorder returns an unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRing returns a recorder that retains only the newest capacity events,
// counting evictions in Dropped. Counts are cumulative over everything
// recorded, retained or not.
func NewRing(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{limit: capacity}
}

// SetSystem stamps subsequently recorded events with the system name.
func (r *Recorder) SetSystem(name string) { r.system = name }

// Record appends one event, assigning its sequence number and system stamp.
func (r *Recorder) Record(e Event) {
	e.Seq = r.seq
	r.seq++
	if e.System == "" {
		e.System = r.system
	}
	if e.Kind >= 0 && e.Kind < kindCount {
		r.counts[e.Kind]++
	}
	if r.limit > 0 && len(r.events) == r.limit {
		r.events[r.head] = e
		r.head = (r.head + 1) % r.limit
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Fork returns an empty recorder with r's retention bound, for a sub-run
// recorded on its own goroutine and merged back with Merge.
func (r *Recorder) Fork() *Recorder { return &Recorder{limit: r.limit} }

// Merge re-records a finished Fork of r, tagging its events with node, as
// if they had been recorded into r directly: sequence numbers, evictions
// and per-kind counts continue over src's whole recording, the events it
// evicted included. A nil src merges nothing.
func (r *Recorder) Merge(src *Recorder, node int) {
	if src == nil {
		return
	}
	counts := r.counts
	r.seq += src.dropped
	r.dropped += src.dropped
	for _, e := range src.Events() {
		e.Node = node
		r.Record(e)
	}
	for k, n := range src.counts {
		r.counts[k] = counts[k] + n
	}
}

// Len reports how many events are retained.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped reports how many events a ring recorder has evicted.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Count reports how many events of kind k were recorded (cumulative; ring
// eviction does not decrement).
func (r *Recorder) Count(k Kind) uint64 {
	if k < 0 || k >= kindCount {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained events in recording order (a copy; the
// recorder may keep recording afterwards).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// SharedRing is a goroutine-safe bounded event sink: per-run recorders are
// merged in after their (single-threaded) run finishes. The daemon keeps one
// behind /debug/trace.
type SharedRing struct {
	mu sync.Mutex
	r  *Recorder
}

// NewSharedRing returns a shared ring retaining the newest capacity events.
func NewSharedRing(capacity int) *SharedRing {
	return &SharedRing{r: NewRing(capacity)}
}

// Append merges a finished recording into the ring.
func (g *SharedRing) Append(events []Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range events {
		g.r.Record(e)
	}
}

// Snapshot returns the retained events in arrival order.
func (g *SharedRing) Snapshot() []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Events()
}

// Dropped reports how many events the ring has evicted.
func (g *SharedRing) Dropped() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Dropped()
}

// Count reports the cumulative number of events of kind k ever appended.
func (g *SharedRing) Count(k Kind) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Count(k)
}
