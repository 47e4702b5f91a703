package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// Priority-aware admission control: past a queue high-water mark the
// daemon stops treating every request equally and sheds low-priority work
// first, scaled by its predicted cost. This replaces the flat 429 the
// daemon answered under any backpressure — cheap or important requests
// keep flowing while a congested queue rejects bulk low-priority load
// early, before it wastes queue slots it would time out in anyway.

// admissionBar computes the current admission bar for a request of the
// given predicted cost (simulated arrivals / batch jobs): 0 while the
// queue is below the high-water mark, rising linearly with queue pressure
// to ShedLevels × costFactor at a completely full queue. A request is
// admitted when priority + 1 > bar, so priority-0 traffic flows until
// pressure builds and the highest priorities survive all the way to the
// literal queue-full rejection.
func (s *Server) admissionBar(cost int) float64 {
	hw := s.cfg.AdmissionHighWater
	if hw <= 0 || hw >= 1 {
		return 0 // shedding disabled; only the literal queue-full 429 remains
	}
	capacity := float64(s.pool.QueueCapacity())
	high := hw * capacity
	depth := float64(s.pool.QueueDepth())
	if depth <= high {
		return 0
	}
	pressure := (depth - high) / (capacity - high)
	if pressure > 1 {
		pressure = 1
	}
	// Cost scales the bar by ×[0.5, 1]: a MaxArrivals-sized request faces
	// twice the bar of a trivial one at the same pressure, so under
	// congestion the expensive low-priority work goes first.
	costFactor := 0.5 + 0.5*float64(cost)/float64(s.cfg.MaxArrivals)
	if costFactor > 1 {
		costFactor = 1
	}
	return pressure * float64(s.cfg.ShedLevels) * costFactor
}

// admit applies admission control for a request of the given priority and
// predicted cost. It returns true when the request may proceed to the
// worker pool; otherwise it has already written the 429 shed response
// (code shed_low_priority, Retry-After scaled with the backlog) and
// counted the shed.
func (s *Server) admit(w http.ResponseWriter, priority, cost int) bool {
	bar := s.admissionBar(cost)
	if float64(priority+1) > bar {
		return true
	}
	s.met.ObserveShed()
	depth, retry := s.retryAfter(w)
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error: fmt.Sprintf(
			"request shed by admission control: priority %d below the current bar %.2f (%d queued); retry after %ds or raise \"priority\"",
			priority, bar, depth, retry),
		Code:       codeShed,
		QueueDepth: depth,
	})
	return false
}

// retryAfter sets the Retry-After header of a 429 and returns the queue
// depth it was scaled from, with the advised seconds: a full queue behind
// few workers takes proportionally longer to drain than one behind many.
func (s *Server) retryAfter(w http.ResponseWriter) (depth, retry int) {
	depth = s.pool.QueueDepth()
	retry = 1 + depth/s.pool.Workers()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	return depth, retry
}
