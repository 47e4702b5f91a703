package server

import (
	"expvar"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/stats"
)

// latencyReservoirCap bounds each endpoint's latency sample. 2048 samples
// hold p99 of a heavy stream to within a few percent while keeping the
// /metrics handler O(cap log cap).
const latencyReservoirCap = 2048

// Metrics aggregates the daemon's service-level counters: request totals by
// endpoint and status class, queue/worker gauges wired to the pool,
// streaming service-latency percentiles per compute endpoint, and the
// cumulative outcomes of schedule runs.
type Metrics struct {
	start time.Time
	pool  *Pool              // gauge source (queue depth, busy workers); nil in tests
	tier  *characterize.Tier // batch characterization tier; nil in tests

	// mu guards totals and lat, so a Snapshot is one consistent cut: each
	// observed request or run is in it whole or not at all.
	mu sync.Mutex
	// totals holds every cumulative counter in its /metrics wire form; its
	// gauge, uptime and endpoint fields stay zero.
	totals Snapshot
	lat    map[string]*latencySeries
}

// latencySeries is one endpoint's service-time distribution.
type latencySeries struct {
	count     int64
	errors    int64
	res       *stats.Reservoir // milliseconds, end-to-end (queue wait + run)
	queueWait *stats.Reservoir // milliseconds spent queued
}

// NewMetrics builds the metrics layer; pool supplies the live gauges and may
// be nil for tests.
func NewMetrics(pool *Pool) *Metrics {
	return &Metrics{
		start: time.Now(),
		pool:  pool,
		totals: Snapshot{
			TraceDecisions: map[string]uint64{},
			ClusterNodes:   map[string]ClusterNodeCounters{},
			SLOClasses:     map[string]ClassSLOWire{},
		},
		lat: map[string]*latencySeries{},
	}
}

// ObserveRequest counts one HTTP request and its response status class.
func (m *Metrics) ObserveRequest(status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totals.Requests++
	switch status / 100 {
	case 2:
		m.totals.Status2xx++
	case 4:
		m.totals.Status4xx++
	case 5:
		m.totals.Status5xx++
	}
}

// ObserveShed counts one request rejected by priority-aware admission
// control (shed_low_priority, as opposed to the literal queue-full 429).
func (m *Metrics) ObserveShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totals.JobsShed++
}

// observe accumulates one schedule run into the totals: its inline trace
// block (nil when untraced) and every node simulation's fault, SLO and
// predictor outcomes; a cluster endpoint's run (clustered) also adds its
// steal count plus each node index's routed jobs, steal flows, peak
// backlog (a high-water mark, not a sum) and attributed energy.
func (m *Metrics) observe(res *hetsched.ClusterResult, tb *TraceBlock, clustered bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &m.totals
	if tb != nil {
		t.TracedRuns++
		for kind, n := range tb.Counts {
			t.TraceDecisions[kind] += n
		}
	}
	if clustered {
		t.ClusterRuns++
		t.ClusterSteals += int64(res.Steals)
	}
	for _, nr := range res.Nodes {
		t.observeNode(nr.Metrics)
		if !clustered {
			continue
		}
		key := strconv.Itoa(nr.Node)
		c := t.ClusterNodes[key]
		c.Jobs += int64(nr.JobsRouted)
		c.StolenIn += int64(nr.StolenIn)
		c.StolenOut += int64(nr.StolenOut)
		c.MaxPending = max(c.MaxPending, int64(nr.MaxPending))
		c.TotalEnergyNJ += nr.Metrics.TotalEnergy()
		t.ClusterNodes[key] = c
	}
}

// observeNode accumulates one node simulation's fault, SLO and predictor
// outcomes. Per-class SLO counters merge by class name, predictor members
// by member name across hot-swaps, with the latest end-of-run weight.
func (t *Snapshot) observeNode(run hetsched.Metrics) {
	if run.FaultInjected {
		t.FaultedRuns++
		t.FaultEvents += int64(run.FaultEvents)
		t.JobsRedispatched += int64(run.JobsRedispatched)
	}
	if run.DeadlinesTotal > 0 {
		t.SLORuns++
		t.SLODeadlines += int64(run.DeadlinesTotal)
		t.SLOMisses += int64(run.DeadlineMisses)
		t.SLOMigrations += int64(run.SLOMigrations)
		addClasses(t.SLOClasses, run)
	}
	if ps := run.Predictor; ps != nil && ps.Predictions > 0 {
		t.PredictorRuns++
		if t.Predictor == nil {
			t.Predictor = &PredictorWire{}
		}
		p := t.Predictor
		p.Name = ps.Name
		p.Predictions += int64(ps.Predictions)
		p.Hits += int64(ps.Hits)
		p.RegretNJ += ps.RegretNJ
		p.HitRate = float64(p.Hits) / float64(p.Predictions)
		for _, mem := range ps.Members {
			i := slices.IndexFunc(p.Members, func(w PredictorMemberWire) bool { return w.Name == mem.Name })
			if i < 0 {
				i = len(p.Members)
				p.Members = append(p.Members, PredictorMemberWire{Name: mem.Name})
			}
			c := &p.Members[i]
			c.Weight = mem.Weight
			c.Predictions += int64(mem.Predictions)
			c.Hits += int64(mem.Hits)
			c.RegretNJ += mem.RegretNJ
			if c.Predictions > 0 {
				c.HitRate = float64(c.Hits) / float64(c.Predictions)
			}
		}
	}
}

// observeSwap counts one successful POST /v1/predictor hot-swap.
func (m *Metrics) observeSwap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totals.PredictorSwaps++
}

// ObserveService records one compute job's end-to-end service time and
// queue wait for an endpoint; failed marks jobs that returned an error.
func (m *Metrics) ObserveService(endpoint string, total, queueWait time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.lat[endpoint]
	if !ok {
		seed := int64(len(m.lat))*7919 + 1
		res, _ := stats.NewReservoir(latencyReservoirCap, seed)
		qw, _ := stats.NewReservoir(latencyReservoirCap, seed+1)
		s = &latencySeries{res: res, queueWait: qw}
		m.lat[endpoint] = s
	}
	s.count++
	if failed {
		s.errors++
	}
	s.res.Observe(float64(total) / float64(time.Millisecond))
	s.queueWait.Observe(float64(queueWait) / float64(time.Millisecond))
}

// EndpointSnapshot is one endpoint's latency summary in milliseconds.
type EndpointSnapshot struct {
	Count        int64   `json:"count"`
	Errors       int64   `json:"errors"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	QueueWaitP95 float64 `json:"queue_wait_p95_ms"`
}

// Snapshot is the full /metrics payload.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests  int64 `json:"requests_total"`
	Status2xx int64 `json:"responses_2xx"`
	Status4xx int64 `json:"responses_4xx"`
	Status5xx int64 `json:"responses_5xx"`

	Workers      int   `json:"workers"`
	WorkersBusy  int64 `json:"workers_busy"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_capacity"`
	JobsAccepted int64 `json:"jobs_accepted"`
	JobsRejected int64 `json:"jobs_rejected"` // queue-full backpressure
	JobsShed     int64 `json:"jobs_shed"`     // admission control (shed_low_priority)
	JobsCanceled int64 `json:"jobs_canceled"` // context died while queued
	JobPanics    int64 `json:"job_panics"`

	// Characterization serving-tier counters (memory LRU, coalescing, disk
	// cache, computes) for the batch endpoints; absent until a tier exists.
	Characterization *characterize.TierStats `json:"characterization,omitempty"`

	// Fault-injection totals across all faulted node simulations, on
	// every schedule endpoint.
	FaultedRuns      int64 `json:"faulted_runs"`
	FaultEvents      int64 `json:"fault_events"`
	JobsRedispatched int64 `json:"jobs_redispatched"`

	// Decision-audit totals across all ?trace=1 schedule runs, keyed by
	// trace event kind.
	TracedRuns     int64             `json:"traced_runs"`
	TraceDecisions map[string]uint64 `json:"trace_decisions,omitempty"`

	// Cluster-dispatch totals across the cluster endpoints' runs, single
	// and batch; the per-node map is keyed by node index.
	ClusterRuns   int64                          `json:"cluster_runs"`
	ClusterSteals int64                          `json:"cluster_steals"`
	ClusterNodes  map[string]ClusterNodeCounters `json:"cluster_nodes,omitempty"`

	// SLO totals across all deadline-bearing scenario runs; the per-class
	// map merges class counters by name.
	SLORuns       int64                   `json:"slo_runs"`
	SLODeadlines  int64                   `json:"slo_deadlines,omitempty"`
	SLOMisses     int64                   `json:"slo_deadline_misses,omitempty"`
	SLOMigrations int64                   `json:"slo_migrations,omitempty"`
	SLOClasses    map[string]ClassSLOWire `json:"slo_classes,omitempty"`

	// Predictor-quality totals: per-predictor (and per-ensemble-member)
	// hit rate and cumulative energy regret across all node simulations,
	// plus the hot-swap count.
	PredictorRuns  int64          `json:"predictor_runs"`
	PredictorSwaps int64          `json:"predictor_swaps"`
	Predictor      *PredictorWire `json:"predictor,omitempty"`

	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// Snapshot captures the current counters and percentile estimates. Every
// counter Metrics owns is copied under one hold of its lock; the pool
// gauges and tier counters are the pool's and the tier's own.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	snap := m.totals
	snap.TraceDecisions = maps.Clone(snap.TraceDecisions)
	snap.ClusterNodes = maps.Clone(snap.ClusterNodes)
	snap.SLOClasses = maps.Clone(snap.SLOClasses)
	if p := m.totals.Predictor; p != nil {
		c := *p
		c.Members = slices.Clone(p.Members)
		snap.Predictor = &c
	}
	snap.Endpoints = make(map[string]EndpointSnapshot, len(m.lat))
	for name, s := range m.lat {
		qs, err := s.res.Quantiles(0.50, 0.95, 0.99)
		if err != nil {
			continue
		}
		qw, err := s.queueWait.Quantile(0.95)
		if err != nil {
			continue
		}
		snap.Endpoints[name] = EndpointSnapshot{
			Count:        s.count,
			Errors:       s.errors,
			P50Ms:        qs[0],
			P95Ms:        qs[1],
			P99Ms:        qs[2],
			QueueWaitP95: qw,
		}
	}
	m.mu.Unlock()

	snap.UptimeSeconds = time.Since(m.start).Seconds()
	if m.tier != nil {
		ts := m.tier.Stats()
		snap.Characterization = &ts
	}
	if m.pool != nil {
		snap.Workers = m.pool.Workers()
		snap.WorkersBusy = m.pool.Busy()
		snap.QueueDepth = m.pool.QueueDepth()
		snap.QueueCap = m.pool.QueueCapacity()
		snap.JobsAccepted = m.pool.submitted.Load()
		snap.JobsRejected = m.pool.rejected.Load()
		snap.JobsCanceled = m.pool.canceled.Load()
		snap.JobPanics = m.pool.panics.Load()
	}
	return snap
}

var expvarOnce sync.Once

// PublishExpvar exposes the snapshot under the process-wide expvar map as
// "hetschedd" (served by the debug mux at /debug/vars). Safe to call more
// than once; only the first caller's Metrics is published, matching
// expvar's one-namespace-per-process model.
func (m *Metrics) PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("hetschedd", expvar.Func(func() any { return m.Snapshot() }))
	})
}
