package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hetsched"
	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// maxInlineTraceEvents caps the per-run recorder behind ?trace=1 (and so
// the trace block inlined into the response): longer runs keep their newest
// events and report the eviction count as dropped.
const maxInlineTraceEvents = 10000

// maxBodyBytes bounds request bodies; every /v1 request is a small JSON
// object, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// statusClientClosedRequest is the de-facto (nginx) status for "client went
// away before we answered"; the stdlib defines no name for it.
const statusClientClosedRequest = 499

// badRequestError marks job errors caused by the request payload (unknown
// kernel, bad mix) so they map to 400 instead of 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return badRequestError{err: err} }

// writeJSON encodes v with status; encoding errors are ignored (the header
// is already committed).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable error codes for the envelope; clients branch on these, not on the
// message text.
const (
	codeBadRequest       = "bad_request"
	codeQueueFull        = "queue_full"
	codeShed             = "shed_low_priority"
	codeDraining         = "draining"
	codeTimeout          = "timeout"
	codeClientClosed     = "client_closed"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeInternal         = "internal"
)

// writeError emits the uniform {"error": ..., "code": ...} body.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// decodeStrict parses the body into v, rejecting unknown fields and
// trailing garbage.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// serveJob pushes fn through the worker pool and maps the outcome onto
// HTTP semantics: 200 with the job's value, 429 + Retry-After under
// backpressure, 503 while draining, 504 on request timeout, 499 when the
// client disconnected, 400 for payload-caused failures, 500 otherwise.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, endpoint string, fn func(ctx context.Context) (any, error)) {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	start := time.Now()
	v, wait, err := s.pool.Submit(ctx, fn)
	if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
		// Instant rejections are counted by the pool, not here: they carry
		// no service time and would drag the latency percentiles down.
		s.met.ObserveService(endpoint, time.Since(start), wait, err != nil)
	}

	var bad badRequestError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, v)
	case errors.Is(err, ErrQueueFull):
		// Scale the advised backoff with the backlog: a full queue behind
		// few workers takes proportionally longer to drain than one behind
		// many. The envelope carries the raw depth so clients can do better.
		depth := s.pool.QueueDepth()
		retry := 1 + depth/s.pool.Workers()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: fmt.Sprintf("job queue full (%d queued, %d workers busy); retry after %ds",
				depth, s.pool.Busy(), retry),
			Code:       codeQueueFull,
			QueueDepth: depth,
		})
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server is shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, codeTimeout,
			"request exceeded the %s service timeout", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, codeClientClosed, "client closed request")
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", bad.Error())
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "%s", err)
	}
}

// handlePredict serves POST /v1/predict.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.Kernel == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing field: kernel")
		return
	}
	if _, err := hetsched.KernelByName(req.Kernel); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	s.serveJob(w, r, "predict", func(context.Context) (any, error) {
		sys := s.system()
		d, err := sys.PredictBestSizeDetail(req.Kernel)
		if err != nil {
			return nil, badRequest(err)
		}
		resp := PredictResponse{
			Kernel:      req.Kernel,
			Predictor:   sys.PredictorName(),
			PredictedKB: d.PredictedKB,
			OracleKB:    d.OracleKB,
			Match:       d.PredictedKB == d.OracleKB,
			RegretNJ:    d.RegretNJ,
		}
		for _, v := range d.Votes {
			resp.Votes = append(resp.Votes, VoteWire{
				Name: v.Name, SizeKB: v.SizeKB, Weight: v.Weight, Confidence: v.Confidence,
			})
		}
		return resp, nil
	})
}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	req := ScheduleRequest{
		System:      "proposed",
		Arrivals:    500,
		Utilization: 0.9,
		Seed:        1,
	}
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if err := s.checkRun(req.System, &req.Arrivals, req.Utilization); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.PriorityLevels < 0 || req.DeadlineSlack < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "negative priority_levels or deadline_slack")
		return
	}
	scenarioSpec, err := hetsched.ParseScenarioSpec(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "scenario: %s", err)
		return
	}
	effArrivals := req.Arrivals
	if !scenarioSpec.IsZero() {
		if len(req.Kernels) > 0 || req.PriorityLevels > 0 || req.DeadlineSlack > 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"scenario is mutually exclusive with kernels, priority_levels and deadline_slack")
			return
		}
		if scenarioSpec.Source == "replay" {
			// Replay reads a server-local file path; that stays a CLI/library
			// feature rather than a remote-request capability.
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"scenario source replay is not available over the API")
			return
		}
		if scenarioSpec.Jobs > 0 {
			effArrivals = scenarioSpec.Jobs
		}
		if effArrivals > s.cfg.MaxArrivals {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"scenario jobs %d exceed the server cap %d", effArrivals, s.cfg.MaxArrivals)
			return
		}
	}
	if req.Faults != nil {
		if err := req.Faults.plan().Validate(); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "faults: %s", err)
			return
		}
	}
	for _, k := range req.Kernels {
		if _, err := hetsched.KernelByName(k); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
			return
		}
	}
	if req.Priority < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "negative priority")
		return
	}
	traced, err := traceQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if !s.admit(w, req.Priority, effArrivals) {
		return
	}
	s.serveJob(w, r, "schedule", func(ctx context.Context) (any, error) {
		return s.runSchedule(ctx, req, scenarioSpec, traced)
	})
}

// runSchedule executes one schedule job on a worker: generate the workload,
// decorate it, simulate, summarize. The context is checked between stages;
// a single simulation is not interruptible mid-run.
func (s *Server) runSchedule(ctx context.Context, req ScheduleRequest, scenarioSpec hetsched.ScenarioSpec, traced bool) (any, error) {
	sys := s.system() // one snapshot: a concurrent hot-swap never splits this run
	var (
		jobs []hetsched.Job
		err  error
	)
	switch {
	case !scenarioSpec.IsZero():
		jobs, err = sys.ScenarioWorkload(scenarioSpec, req.Arrivals, req.Utilization, req.Seed)
	case len(req.Kernels) > 0:
		jobs, err = sys.WeightedWorkload(req.Kernels, req.Arrivals, req.Utilization, req.Seed)
	default:
		jobs, err = sys.Workload(req.Arrivals, req.Utilization, req.Seed)
	}
	if err != nil {
		return nil, badRequest(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sim := hetsched.SimConfig{}
	scenarioSpec.ApplySim(&sim)
	if req.PriorityLevels > 0 {
		sys.AssignPriorities(jobs, req.PriorityLevels, req.Seed+1)
		sim.PriorityScheduling = true
		sim.Preemptive = req.Preemptive
	}
	if req.DeadlineSlack > 0 {
		if err := sys.AssignDeadlines(jobs, req.DeadlineSlack); err != nil {
			return nil, badRequest(err)
		}
	}
	if req.Faults != nil {
		sim.Faults = req.Faults.plan()
	}
	sim.Trace = inlineRecorder(traced)
	m, err := sys.RunSystemContext(ctx, req.System, jobs, sim)
	if err != nil {
		return nil, err
	}
	if m.FaultInjected {
		s.met.ObserveFaults(m.FaultEvents, m.JobsRedispatched)
	}
	if m.Predictor != nil {
		s.met.ObservePredictor(m.Predictor)
	}
	if m.DeadlinesTotal > 0 {
		s.met.ObserveSLO(m.DeadlinesTotal, m.DeadlineMisses, m.SLOMigrations,
			m.ClassDeadlines, m.ClassDeadlineMisses)
	}
	resp := summarize(m)
	if !scenarioSpec.IsZero() {
		resp.Scenario = scenarioSpec.String()
	}
	resp.Trace = s.publishTrace(sim.Trace)
	return resp, nil
}

// checkRun validates the fields every schedule endpoint shares: the named
// per-node system and the offered utilization. The single-run endpoints
// pass their arrivals, checked against the server cap in between — the
// order their errors have always been reported in; batches pass nil.
func (s *Server) checkRun(system string, arrivals *int, utilization float64) error {
	if _, _, err := core.NewPolicy(system); err != nil {
		return err
	}
	if arrivals != nil && (*arrivals < 1 || *arrivals > s.cfg.MaxArrivals) {
		return fmt.Errorf("arrivals %d out of range [1, %d]", *arrivals, s.cfg.MaxArrivals)
	}
	if utilization <= 0 || utilization > 1.5 {
		return fmt.Errorf("utilization %v out of range (0, 1.5]", utilization)
	}
	return nil
}

// traceQuery parses the ?trace= switch of the single-run schedule
// endpoints.
func traceQuery(r *http.Request) (bool, error) {
	switch v := r.URL.Query().Get("trace"); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("trace=%q not in {0, 1, true, false}", v)
	}
}

// inlineRecorder returns the bounded per-run recorder behind ?trace=1, or
// nil (tracing off) for an untraced run.
func inlineRecorder(traced bool) *hetsched.TraceRecorder {
	if !traced {
		return nil
	}
	return hetsched.NewTraceRing(maxInlineTraceEvents)
}

// publishTrace copies a traced run's events into the daemon-wide ring,
// feeds the per-kind trace counters and returns the inline response block;
// an untraced run (nil recorder) publishes nothing and returns nil.
func (s *Server) publishTrace(rec *hetsched.TraceRecorder) *TraceBlock {
	if rec == nil {
		return nil
	}
	evs := rec.Events()
	s.ring.Append(evs)
	counts := traceCounts(rec.Count)
	s.met.ObserveTrace(counts)
	return &TraceBlock{
		Events:  len(evs),
		Dropped: rec.Dropped(),
		Counts:  counts,
		Entries: wireEvents(evs),
	}
}

// traceCounts materializes per-kind counters (keyed by kind name) from a
// recorder's or ring's Count method, omitting zero kinds.
func traceCounts(count func(trace.Kind) uint64) map[string]uint64 {
	m := make(map[string]uint64)
	for _, k := range trace.Kinds() {
		if n := count(k); n > 0 {
			m[k.String()] = n
		}
	}
	return m
}

// wireEvents projects trace events onto the JSON wire schema.
func wireEvents(evs []trace.Event) []TraceEventWire {
	out := make([]TraceEventWire, len(evs))
	for i, e := range evs {
		out[i] = TraceEventWire{
			Seq:         e.Seq,
			Cycle:       e.Cycle,
			Kind:        e.Kind.String(),
			System:      e.System,
			Job:         e.Job,
			App:         e.App,
			Core:        e.Core,
			Config:      e.Config,
			Start:       e.Start,
			SizeKB:      e.SizeKB,
			EnergyNJ:    e.EnergyNJ,
			AltEnergyNJ: e.AltEnergyNJ,
			Accepted:    e.Accepted,
			Profiling:   e.Profiling,
			Detail:      e.Detail,
		}
	}
	return out
}

// handleDebugTrace serves GET /debug/trace: the daemon-wide ring of traced
// schedule runs, as JSON (default), ?format=csv, or ?format=chrome
// (Perfetto-loadable).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	evs := s.ring.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, DebugTraceResponse{
			Events:  len(evs),
			Dropped: s.ring.Dropped(),
			Counts:  traceCounts(s.ring.Count),
			Entries: wireEvents(evs),
		})
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = trace.WriteCSV(w, evs)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChrome(w, evs)
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"format=%q not in {json, csv, chrome}", format)
	}
}

// plan converts the wire spec into the simulator's fault plan.
func (f *FaultSpec) plan() hetsched.FaultPlan {
	return hetsched.FaultPlan{
		Seed:           f.Seed,
		TransientMTTF:  f.TransientMTTF,
		RecoveryCycles: f.RecoveryCycles,
		PermanentMTTF:  f.PermanentMTTF,
		StuckMTTF:      f.StuckMTTF,
		CounterNoise:   f.CounterNoise,
		MaxPermanent:   f.MaxPermanent,
	}
}

// summarize projects a Metrics onto the wire schema.
func summarize(m hetsched.Metrics) ScheduleResponse {
	var classes map[string]ClassSLOWire
	if len(m.ClassDeadlines) > 0 {
		classes = make(map[string]ClassSLOWire, len(m.ClassDeadlines))
		for name, n := range m.ClassDeadlines {
			miss := m.ClassDeadlineMisses[name]
			rate := 0.0
			if n > 0 {
				rate = float64(miss) / float64(n)
			}
			classes[name] = ClassSLOWire{Deadlines: n, Misses: miss, MissRate: rate}
		}
	}
	return ScheduleResponse{
		System:    m.System,
		Jobs:      m.Jobs,
		Completed: m.Completed,

		MakespanCycles:   m.Makespan,
		TurnaroundCycles: m.TurnaroundCycles,
		TurnaroundP50:    m.TurnaroundPercentile(50),
		TurnaroundP95:    m.TurnaroundPercentile(95),
		TurnaroundP99:    m.TurnaroundPercentile(99),

		TotalEnergyNJ:     m.TotalEnergy(),
		IdleEnergyNJ:      m.IdleEnergy,
		DynamicEnergyNJ:   m.DynamicEnergy,
		StaticEnergyNJ:    m.StaticEnergy,
		CoreEnergyNJ:      m.CoreEnergy,
		ProfilingEnergyNJ: m.ProfilingEnergy,

		ProfilingRuns:     m.ProfilingRuns,
		TuningRuns:        m.TuningRuns,
		NonBestPlacements: m.NonBestPlacements,
		StallDecisions:    m.StallDecisions,
		ResourceStalls:    m.ResourceStalls,
		MaxQueueDepth:     m.MaxQueueDepth,

		Preemptions:    m.Preemptions,
		DeadlinesTotal: m.DeadlinesTotal,
		DeadlineMisses: m.DeadlineMisses,

		DeadlineMissRate:   m.MissRate(),
		SLOMigrations:      m.SLOMigrations,
		SLOEnergyPenaltyNJ: m.SLOEnergyPenaltyNJ,
		Classes:            classes,

		FaultInjected:      m.FaultInjected,
		FaultEvents:        m.FaultEvents,
		JobsRedispatched:   m.JobsRedispatched,
		Recoveries:         m.Recoveries,
		CoreDowntimeCycles: m.CoreDowntimeCycles,
		MTTRCycles:         m.MTTRCycles,
		FaultEnergyNJ:      m.FaultEnergyNJ,
		StuckReconfigs:     m.StuckReconfigs,
		FallbackPlacements: m.FallbackPlacements,

		Predictor: predictorWire(m.Predictor),
	}
}

// predictorWire projects one run's predictor scorecard onto the wire
// schema; nil in, nil out.
func predictorWire(ps *hetsched.PredictorStats) *PredictorWire {
	if ps == nil {
		return nil
	}
	w := &PredictorWire{
		Name:        ps.Name,
		Predictions: int64(ps.Predictions),
		Hits:        int64(ps.Hits),
		HitRate:     ps.HitRate(),
		RegretNJ:    ps.RegretNJ,
	}
	for _, m := range ps.Members {
		w.Members = append(w.Members, PredictorMemberWire{
			Name:        m.Name,
			Weight:      m.Weight,
			Predictions: int64(m.Predictions),
			Hits:        int64(m.Hits),
			HitRate:     m.HitRate(),
			RegretNJ:    m.RegretNJ,
		})
	}
	return w
}

// handleTune serves POST /v1/tune.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if req.Kernel == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing field: kernel")
		return
	}
	if _, err := hetsched.KernelByName(req.Kernel); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	validSize := false
	for _, sz := range cache.Sizes() {
		if sz == req.SizeKB {
			validSize = true
		}
	}
	if !validSize {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"size_kb %d not in the design space %v", req.SizeKB, cache.Sizes())
		return
	}
	s.serveJob(w, r, "tune", func(ctx context.Context) (any, error) {
		explored, best, err := s.system().TuneKernelContext(ctx, req.Kernel, req.SizeKB)
		if err != nil {
			return nil, badRequest(err)
		}
		resp := TuneResponse{
			Kernel: req.Kernel,
			SizeKB: req.SizeKB,
			Best:   best.String(),
		}
		for _, cfg := range explored {
			resp.Explored = append(resp.Explored, cfg.String())
		}
		return resp, nil
	})
}

// handleDesignSpace serves GET /v1/designspace.
func (s *Server) handleDesignSpace(w http.ResponseWriter, _ *http.Request) {
	var resp DesignSpaceResponse
	for _, cfg := range hetsched.DesignSpace() {
		resp.Configs = append(resp.Configs, cfg.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	busy := s.pool.Busy()
	sys := s.system()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:           "ok",
		Predictor:        sys.PredictorName(),
		Workers:          s.pool.Workers(),
		QueueCapacity:    s.pool.QueueCapacity(),
		QueueDepth:       s.pool.QueueDepth(),
		WorkersBusy:      busy,
		Saturation:       float64(busy) / float64(s.pool.Workers()),
		WarmStart:        sys.Setup.EvalFromCache && sys.Setup.TrainFromCache,
		Characterization: s.tier.Stats(),
	})
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.met.Snapshot())
}
