package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock lets tests drive the open-loop generator without real time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one open-loop request's timing.
type sample struct {
	op              int
	due, sent, done time.Time
	ok              bool
}

// latency counts from when the request was due, not from when it was sent.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop issues ops first..first+n-1 at a fixed rate from `senders`
// goroutines: op first+k is due at start + k/rate. A sender still busy
// when an op falls due sends it late, and that op's latency still counts
// from its due time, so a stalled request charges every request queued
// behind it instead of silently lowering the offered load.
func openLoop(clk clock, start time.Time, rate float64, first, n, senders int, do func(op int) bool) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				clk.SleepUntil(due)
				s := sample{op: first + k, due: due, sent: clk.Now()}
				s.ok = do(first + k)
				s.done = clk.Now()
				out[k] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs `clients` callers, each issuing the next op as soon as
// its previous one returns, until the deadline. It returns how many ops
// were issued and when the last one finished.
func closedLoop(first, clients int, deadline time.Time, do func(op int)) (int, time.Time) {
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load()) - first, time.Now()
}
