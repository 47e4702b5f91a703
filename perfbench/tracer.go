package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`   // -1 while open
	Parent int    `json:"parent"`   // index of the enclosing span; -1 for none
	Op     int    `json:"op"`       // op sequence index; -1 when unattributed
}

// tracer keeps every span of a traced run in memory until the run ends.
// Its methods are no-ops on a nil tracer, so untraced paths call them
// unconditionally.
type tracer struct {
	t0 time.Time
	// metering switches the predictor meters on. They run on simulator,
	// pool and server goroutines the harness cannot hand a tracer to.
	metering atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a call its caller timed.
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) setMetering(on bool) {
	if t != nil {
		t.metering.Store(on)
	}
}

func (t *tracer) meteringOn() bool { return t != nil && t.metering.Load() }

// spanTotal aggregates the closed spans of one name.
type spanTotal struct {
	count       int
	total, self time.Duration
}

// totals aggregates spans by name. A span's self time is its duration minus
// the part of its interval its child spans cover, overlapping children
// counted once.
func (t *tracer) totals() map[string]spanTotal {
	out := map[string]spanTotal{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - covered(kids[i], s.Start, s.End))
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
