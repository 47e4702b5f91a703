package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hetsched"
	"hetsched/internal/cache"
	"hetsched/internal/core"
	"hetsched/internal/scenario"
	"hetsched/internal/trace"
	"hetsched/internal/vm"
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
// trailing garbage. Decoder.More reports false before a stray ']' or '}',
// so the end of the body is checked with Token, which must find EOF.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
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

	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, v)
	case errors.Is(err, ErrQueueFull):
		// The envelope carries the raw depth so clients can do better than
		// the advised backoff.
		depth, retry := s.retryAfter(w)
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
	case errors.As(err, new(badRequestError)), errors.Is(err, core.ErrNoProgress), errors.As(err, new(vm.ErrBudget)):
		// The payload's doing: a bad field, a fault plan that kills jobs
		// faster than they run, or a kernel variant too long to execute.
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
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

// The four schedule endpoints share one pipeline: decode → check → admit →
// pool → workload source → cluster run → observe → summarize. A handler
// keeps only its request type, its defaults, its check order and the shape
// of its response; runSchedule is the one place that branches, on where
// the jobs come from (a generator or a batch plan). Every run is a cluster
// run: the single-node endpoints run one default node, which the cluster
// simulates as the bare simulator.

// scheduleRun is one checked schedule request on its way from the handler
// through admission and the worker pool to the run step.
type scheduleRun struct {
	priority int // admission priority
	cost     int // admission cost: the jobs the request asks to simulate
	traced   bool

	// The workload source: generate draws the jobs on the run's System
	// snapshot (scenario is its spec, echoed in the response); without it
	// the batch plan's rows are characterized through the serving tier and
	// spread at utilization.
	generate    func(sys *hetsched.System) ([]hetsched.Job, error)
	scenario    string
	rows        []BatchJob
	plan        *batchPlan
	utilization float64

	// cluster is the topology and node template the jobs run on;
	// clustered marks a cluster endpoint's run, which also feeds the
	// cluster counters.
	cluster   hetsched.ClusterConfig
	clustered bool

	// respond projects the run's outcome onto the endpoint's response.
	respond func(runOutcome) any
}

// runOutcome is the run an endpoint's respond projects: the cluster result
// (nil for a batch with no valid row), its inline trace block and scenario
// echo, plus for a batch source the characterization counts and the
// simulated jobs with each one's request row.
type runOutcome struct {
	res      *hetsched.ClusterResult
	trace    *TraceBlock
	scenario string
	wire     BatchCharacterizationWire
	jobs     []hetsched.Job
	simToReq []int
}

// node summarizes a single-node run: its one node's metrics.
func (o runOutcome) node(system string) ScheduleResponse {
	if o.res == nil {
		return ScheduleResponse{System: system}
	}
	resp := summarize(o.res.Nodes[0].Metrics)
	resp.SLOWire = sloWire(o.scenario, o.res.Nodes)
	resp.Trace = o.trace
	return resp
}

// oneNode is the single-node endpoints' topology: one Figure 1 node,
// shared read-only by every run.
var oneNode = []hetsched.SystemSpec{hetsched.DefaultSystemSpec()}

// serveSchedule is the request half of the pipeline: decode the body over
// req (which carries the endpoint's defaults), answer the first error of
// check with 400, then admit the run and queue it on the worker pool.
func (s *Server) serveSchedule(w http.ResponseWriter, r *http.Request, endpoint string, req any, check func() (*scheduleRun, error)) {
	var run *scheduleRun
	err := decodeStrict(r, req)
	if err == nil {
		run, err = check()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", err)
		return
	}
	if !s.admit(w, run.priority, run.cost) {
		return
	}
	s.serveJob(w, r, endpoint, func(ctx context.Context) (any, error) {
		return s.runSchedule(ctx, run)
	})
}

// scheduleDefaults are the generated endpoints' request defaults.
var scheduleDefaults = ScheduleRequest{System: "proposed", Arrivals: 500, Utilization: 0.9, Seed: 1}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	req := scheduleDefaults
	s.serveSchedule(w, r, "schedule", &req, func() (*scheduleRun, error) {
		if err := s.checkRun(req.System, &req.Arrivals, req.Utilization); err != nil {
			return nil, err
		}
		run, err := s.checkGenerated(r, &req, hetsched.ClusterConfig{Nodes: oneNode, System: req.System})
		if err != nil {
			return nil, err
		}
		run.respond = func(o runOutcome) any { return o.node(req.System) }
		return run, nil
	})
}

// checkRun validates the fields every schedule endpoint shares: the named
// per-node system and the offered utilization. The generated-workload
// endpoints pass their arrivals, checked against the server cap in
// between — the order their errors have always been reported in; batches
// pass nil.
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

// errNegativePriority rejects a negative request-level admission priority:
// admission would shed it even on an idle daemon, so no retry could help.
var errNegativePriority = errors.New("negative priority")

// checkGenerated checks what the two generated-workload endpoints share
// after their own fields — the scenario (grammar, no replay, jobs= under
// the cap), the fault plan, the admission priority, then ?trace= — and
// builds the run on the endpoint's topology: the scenario's simulator
// features and preemption armed on every node, and one scenario draw
// sized for the topology's cores.
func (s *Server) checkGenerated(r *http.Request, req *ScheduleRequest, cluster hetsched.ClusterConfig) (*scheduleRun, error) {
	spec, err := hetsched.ParseScenarioSpec(req.Scenario)
	if err != nil {
		return nil, err // already prefixed "scenario: "
	}
	if spec.Source == "replay" {
		// Replay reads a server-local file path; that stays a CLI/library
		// feature rather than a remote-request capability.
		return nil, errors.New("scenario source replay is not available over the API")
	}
	cost := req.Arrivals
	if spec.Jobs > 0 {
		cost = spec.Jobs
	}
	if cost > s.cfg.MaxArrivals {
		return nil, fmt.Errorf("scenario jobs %d exceed the server cap %d", cost, s.cfg.MaxArrivals)
	}
	if req.Faults != nil {
		cluster.Sim.Faults = req.Faults.plan()
		if err := cluster.Sim.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
	}
	if req.Priority < 0 {
		return nil, errNegativePriority
	}
	var traced bool
	switch v := r.URL.Query().Get("trace"); v {
	case "", "0", "false":
	case "1", "true":
		traced = true
	default:
		return nil, fmt.Errorf("trace=%q not in {0, 1, true, false}", v)
	}

	echo := spec.String() // empty when the request sent no scenario
	if spec.IsZero() {
		spec.Source = "uniform"
	}
	spec.ApplySim(&cluster.Sim)
	cluster.Sim.Preemptive = req.Preemptive && cluster.Sim.PriorityScheduling
	return &scheduleRun{
		priority: req.Priority, cost: cost, traced: traced, cluster: cluster, scenario: echo,
		generate: func(sys *hetsched.System) ([]hetsched.Job, error) {
			return spec.Generate(scenario.Params{DB: sys.Eval, Arrivals: req.Arrivals,
				Cores: clusterCores(cluster.Nodes), Utilization: req.Utilization, Seed: req.Seed})
		},
	}, nil
}

// runSchedule is the pipeline's run step, on a worker: draw the jobs from
// the run's source, run them on its cluster, then publish the trace and
// observe. The context is checked between stages; a single simulation is
// not interruptible mid-run.
func (s *Server) runSchedule(ctx context.Context, run *scheduleRun) (any, error) {
	sys := s.system() // one snapshot: a concurrent hot-swap never splits this run
	db := sys.Eval
	out := runOutcome{scenario: run.scenario}
	var (
		jobs []hetsched.Job
		err  error
	)
	if run.generate != nil {
		if jobs, err = run.generate(sys); err != nil {
			return nil, badRequest(err)
		}
	} else {
		if db, out.wire, err = s.characterizeBatch(ctx, run.plan); err != nil {
			return nil, err
		}
		if len(run.plan.valid) == 0 {
			return run.respond(out), nil
		}
		if jobs, out.simToReq, err = batchJobs(run.rows, run.plan, db, run.utilization, clusterCores(run.cluster.Nodes)); err != nil {
			return nil, err
		}
		out.jobs = jobs
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if run.traced { // the bounded recorder behind ?trace=1
		run.cluster.Trace = hetsched.NewTraceRing(maxInlineTraceEvents)
	}
	if out.res, err = sys.RunClusterOnDBContext(ctx, db, run.cluster, jobs); err != nil {
		return nil, err
	}
	out.trace = s.publishTrace(run.cluster.Trace)
	s.met.observe(out.res, out.trace, run.clustered)
	return run.respond(out), nil
}

// publishTrace copies a traced run's events into the daemon-wide ring and
// returns the inline response block; an untraced run (nil recorder)
// publishes nothing and returns nil.
func (s *Server) publishTrace(rec *hetsched.TraceRecorder) *TraceBlock {
	if rec == nil {
		return nil
	}
	evs := rec.Events()
	s.ring.Append(evs)
	return &TraceBlock{
		Events:  len(evs),
		Dropped: rec.Dropped(),
		Counts:  traceCounts(rec.Count),
		Entries: evs,
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
			Entries: evs,
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

// sloWire is the SLO block on the wire: the scenario echo and the nodes'
// preemption and deadline/SLO accounting summed, per class by class name.
// /v1/schedule's run has one node.
func sloWire(scenario string, nodes []hetsched.ClusterNodeResult) SLOWire {
	w := SLOWire{Scenario: scenario}
	for _, nr := range nodes {
		m := nr.Metrics
		w.Preemptions += m.Preemptions
		w.DeadlinesTotal += m.DeadlinesTotal
		w.DeadlineMisses += m.DeadlineMisses
		w.SLOMigrations += m.SLOMigrations
		w.SLOEnergyPenaltyNJ += m.SLOEnergyPenaltyNJ
		if len(m.ClassDeadlines) > 0 && w.Classes == nil {
			w.Classes = make(map[string]ClassSLOWire, len(m.ClassDeadlines))
		}
		addClasses(w.Classes, m)
	}
	if w.DeadlinesTotal > 0 {
		w.DeadlineMissRate = float64(w.DeadlineMisses) / float64(w.DeadlinesTotal)
	}
	return w
}

// addClasses merges a run's per-class deadline counts into classes by
// class name.
func addClasses(classes map[string]ClassSLOWire, m hetsched.Metrics) {
	for name, n := range m.ClassDeadlines {
		c := classes[name]
		c.Deadlines += n
		c.Misses += m.ClassDeadlineMisses[name]
		if c.Deadlines > 0 {
			c.MissRate = float64(c.Misses) / float64(c.Deadlines)
		}
		classes[name] = c
	}
}

// summarize projects a node's Metrics onto the wire schema, all but the
// SLO block (sloWire).
func summarize(m hetsched.Metrics) ScheduleResponse {
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
