package scenario

// Trace replay: turn a recorded decision-audit trace (trace.WriteCSV) back
// into a reproducible workload. The simulator enqueues each arrival at
// exactly its arrival cycle (the event loop never jumps past a pending
// arrival), so the first enqueue event of each job index recovers the
// original (app, arrival) pair losslessly; enqueues after fault kills are
// re-queues of the same index and are ignored.

import (
	"fmt"
	"os"

	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// FromTrace reconstructs the arrival stream from a recorded event log.
// Scheduling artifacts (priorities, deadlines, classes) are not recoverable
// from enqueue events; re-apply them via the spec's SLO layer.
func FromTrace(events []trace.Event) ([]core.Job, error) {
	seen := map[int]bool{}
	var jobs []core.Job
	for _, e := range events {
		if e.Kind != trace.KindEnqueue || e.Job < 0 || seen[e.Job] {
			continue
		}
		seen[e.Job] = true
		jobs = append(jobs, core.Job{AppID: e.App, ArrivalCycle: e.Cycle})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("scenario: trace has no enqueue events to replay")
	}
	return core.FinishWorkload(jobs), nil
}

// ReadTraceWorkload reads a trace CSV file and replays it into a workload.
func ReadTraceWorkload(path string) ([]core.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	events, err := trace.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: replay %s: %w", path, err)
	}
	return FromTrace(events)
}
