package server

// JSON request/response schemas for the /v1 API. Field names are the wire
// contract documented in DESIGN.md; unknown request fields are rejected so
// client typos fail loudly instead of silently using defaults.

import (
	"hetsched/internal/characterize"
	"hetsched/internal/trace"
)

// PredictRequest asks the trained predictor for one kernel's best cache
// size.
type PredictRequest struct {
	// Kernel is the EEMBC-style benchmark name (see GET /v1/designspace for
	// configs, `cachetune -list` for kernels).
	Kernel string `json:"kernel"`
}

// PredictResponse reports the predicted and ground-truth best sizes. The
// flat legacy fields are stable; regret_nj and (for ensemble predictors)
// the per-member votes block are additive.
type PredictResponse struct {
	Kernel      string `json:"kernel"`
	Predictor   string `json:"predictor"`
	PredictedKB int    `json:"predicted_kb"`
	OracleKB    int    `json:"oracle_kb"`
	Match       bool   `json:"match"`
	// RegretNJ is the energy cost of the prediction: best energy at the
	// predicted size minus the global best (0 on a match).
	RegretNJ float64 `json:"regret_nj"`
	// Votes lists the per-member ballots behind an ensemble prediction;
	// absent for single legacy predictors.
	Votes []VoteWire `json:"votes,omitempty"`
}

// VoteWire is one ensemble member's ballot on the wire.
type VoteWire struct {
	Name       string  `json:"name"`
	SizeKB     int     `json:"size_kb"`
	Weight     float64 `json:"weight"`
	Confidence float64 `json:"confidence"`
}

// PredictorMemberWire is one ensemble member's scorecard: its current
// weight plus prequential hit/regret accounting.
type PredictorMemberWire struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	Predictions int64   `json:"predictions"`
	Hits        int64   `json:"hits"`
	HitRate     float64 `json:"hit_rate"`
	RegretNJ    float64 `json:"regret_nj"`
}

// PredictorWire is a predictor scorecard: per run when inlined into a
// ScheduleResponse, cumulative in /metrics and GET /v1/predictor.
type PredictorWire struct {
	Name        string                `json:"name"`
	Predictions int64                 `json:"predictions"`
	Hits        int64                 `json:"hits"`
	HitRate     float64               `json:"hit_rate"`
	RegretNJ    float64               `json:"regret_nj"`
	Members     []PredictorMemberWire `json:"members,omitempty"`
}

// PredictorStateResponse answers GET /v1/predictor (and a successful POST):
// the active spec plus the daemon-lifetime scorecard.
type PredictorStateResponse struct {
	// Spec is the active predictor in -predictor grammar.
	Spec string `json:"spec"`
	// Online reports whether the active predictor learns from outcome
	// feedback during schedule runs.
	Online bool `json:"online"`
	// Swaps counts successful POST /v1/predictor hot-swaps since start.
	Swaps int64 `json:"swaps"`
	// Members is the active predictor's member set with its current
	// template weights (single-kind predictors report one member).
	Members []PredictorMemberWire `json:"members"`
	// Cumulative aggregates per-run predictor scorecards across every
	// schedule run since start; absent until a predictor-bearing run
	// completes. Member rows are merged by name across hot-swaps.
	Cumulative *PredictorWire `json:"cumulative,omitempty"`
}

// PredictorSwapRequest asks POST /v1/predictor to hot-swap the active
// predictor. The swap is atomic: in-flight runs finish on the predictor
// they started with, and a spec that fails to parse or build leaves the
// old predictor live.
type PredictorSwapRequest struct {
	// Spec is the new predictor in -predictor grammar ("ann",
	// "ensemble:table,markov,ann", ...).
	Spec string `json:"spec"`
}

// ScheduleRequest runs one named system over a generated workload.
type ScheduleRequest struct {
	// System names the scheduling system (default "proposed"); see
	// core.SystemNames.
	System string `json:"system,omitempty"`
	// Arrivals is the workload length (default 500, capped by the server's
	// MaxArrivals).
	Arrivals int `json:"arrivals,omitempty"`
	// Utilization is the offered load (default 0.9).
	Utilization float64 `json:"utilization,omitempty"`
	// Seed drives workload generation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Kernels optionally weights the application mix by name (repeat a name
	// to weight it); empty means the whole suite uniformly.
	Kernels []string `json:"kernels,omitempty"`
	// PriorityLevels > 0 assigns uniform random priorities in [0, levels)
	// and enables priority scheduling.
	//
	// Deprecated: a request without Scenario runs as the scenario
	// "uniform;prio=uniform:<levels>"; send that instead.
	PriorityLevels int `json:"priority_levels,omitempty"`
	// Preemptive additionally lets high-priority arrivals preempt whenever
	// the run schedules by priority (PriorityLevels > 0, or a scenario with
	// prio= or SLO classes).
	Preemptive bool `json:"preemptive,omitempty"`
	// DeadlineSlack > 0 assigns each job a deadline of arrival +
	// slack × best-config execution time; misses are reported.
	//
	// Deprecated: a request without Scenario runs as the scenario
	// "uniform;slo=deadline:slack=<slack>", which also arms the SLO-aware
	// rule; send that instead.
	DeadlineSlack float64 `json:"deadline_slack,omitempty"`
	// Scenario, when non-empty, generates the workload from a scenario
	// spec ("bursty:rate=1.2;slo=deadline:slack=1.5,classes=hi@0.2")
	// instead of the uniform generator: the spec's source shapes arrivals,
	// its SLO layer assigns classes and deadlines and arms the SLO-aware
	// scheduler, and the response gains the deadline/SLO block. The spec's
	// jobs= overrides Arrivals (still capped by the server's MaxArrivals)
	// and rate= overrides Utilization. Mutually exclusive with Kernels,
	// PriorityLevels and DeadlineSlack.
	Scenario string `json:"scenario,omitempty"`
	// Faults injects a deterministic fault plan into this run. When absent
	// or not enabled (all rates zero), the run inherits the daemon's
	// -faults default plan, if one was configured.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Priority is the client-asserted importance of this request for
	// admission control (0 = lowest, the default): past the queue
	// high-water mark the daemon sheds low-priority work first, scaled by
	// predicted cost. Distinct from PriorityLevels, which shapes the
	// *simulated* workload's job priorities.
	Priority int `json:"priority,omitempty"`
}

// FaultSpec is the wire form of a fault-injection plan (see internal/fault).
type FaultSpec struct {
	Seed           int64   `json:"seed,omitempty"`
	TransientMTTF  uint64  `json:"transient_mttf_cycles,omitempty"`
	RecoveryCycles uint64  `json:"recovery_cycles,omitempty"`
	PermanentMTTF  uint64  `json:"permanent_mttf_cycles,omitempty"`
	StuckMTTF      uint64  `json:"stuck_mttf_cycles,omitempty"`
	CounterNoise   float64 `json:"counter_noise,omitempty"`
	MaxPermanent   int     `json:"max_permanent,omitempty"`
}

// ScheduleResponse summarizes the run's Metrics. Per-job timelines are
// deliberately omitted from the wire format — they grow with Arrivals; the
// percentiles below carry the tail-latency signal instead.
type ScheduleResponse struct {
	System    string `json:"system"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`

	MakespanCycles   uint64 `json:"makespan_cycles"`
	TurnaroundCycles uint64 `json:"turnaround_cycles"`
	TurnaroundP50    uint64 `json:"turnaround_p50_cycles"`
	TurnaroundP95    uint64 `json:"turnaround_p95_cycles"`
	TurnaroundP99    uint64 `json:"turnaround_p99_cycles"`

	TotalEnergyNJ     float64 `json:"total_energy_nj"`
	IdleEnergyNJ      float64 `json:"idle_energy_nj"`
	DynamicEnergyNJ   float64 `json:"dynamic_energy_nj"`
	StaticEnergyNJ    float64 `json:"static_energy_nj"`
	CoreEnergyNJ      float64 `json:"core_energy_nj"`
	ProfilingEnergyNJ float64 `json:"profiling_energy_nj"`

	ProfilingRuns     int `json:"profiling_runs"`
	TuningRuns        int `json:"tuning_runs"`
	NonBestPlacements int `json:"non_best_placements"`
	StallDecisions    int `json:"stall_decisions"`
	ResourceStalls    int `json:"resource_stalls"`
	MaxQueueDepth     int `json:"max_queue_depth"`

	Preemptions    int `json:"preemptions,omitempty"`
	DeadlinesTotal int `json:"deadlines_total,omitempty"`
	DeadlineMisses int `json:"deadline_misses,omitempty"`

	// Scenario/SLO block; present only on scenario runs.
	Scenario string `json:"scenario,omitempty"`
	// DeadlineMissRate is misses over deadline-carrying completions.
	DeadlineMissRate float64 `json:"deadline_miss_rate,omitempty"`
	// SLOMigrations counts stall decisions overridden to meet deadlines;
	// SLOEnergyPenaltyNJ is the energy those overrides cost vs stalling.
	SLOMigrations      int     `json:"slo_migrations,omitempty"`
	SLOEnergyPenaltyNJ float64 `json:"slo_energy_penalty_nj,omitempty"`
	// Classes is the per-SLO-class deadline accounting, keyed by class
	// name ("default" is the unclassified remainder).
	Classes map[string]ClassSLOWire `json:"classes,omitempty"`

	// Resilience block; present only when the run injected faults.
	FaultInjected      bool    `json:"fault_injected,omitempty"`
	FaultEvents        int     `json:"fault_events,omitempty"`
	JobsRedispatched   int     `json:"jobs_redispatched,omitempty"`
	Recoveries         int     `json:"recoveries,omitempty"`
	CoreDowntimeCycles uint64  `json:"core_downtime_cycles,omitempty"`
	MTTRCycles         uint64  `json:"mttr_cycles,omitempty"`
	FaultEnergyNJ      float64 `json:"fault_energy_nj,omitempty"`
	StuckReconfigs     int     `json:"stuck_reconfigs,omitempty"`
	FallbackPlacements int     `json:"fallback_placements,omitempty"`

	// Predictor block; present when the run's predictor scored at least
	// one prediction against a completed job's ground truth.
	Predictor *PredictorWire `json:"predictor,omitempty"`

	// Trace block; present only when the request asked for ?trace=1.
	Trace *TraceBlock `json:"trace,omitempty"`
}

// ClassSLOWire is one SLO class's deadline accounting on the wire.
type ClassSLOWire struct {
	Deadlines int     `json:"deadlines"`
	Misses    int     `json:"misses"`
	MissRate  float64 `json:"miss_rate"`
}

// TraceBlock is the inline decision-audit trace of one ?trace=1 schedule
// run: the newest events (capped; Dropped counts evictions) plus the
// cumulative per-kind decision counters of the whole run.
type TraceBlock struct {
	Events  int               `json:"events"`
	Dropped uint64            `json:"dropped,omitempty"`
	Counts  map[string]uint64 `json:"counts"`
	Entries []TraceEventWire  `json:"entries"`
}

// TraceEventWire is the wire form of one trace event: the event itself,
// its kind by name (see internal/trace for the field semantics; ints are -1
// when not applicable, and node, the cluster node, is omitted when 0).
type TraceEventWire = trace.Event

// DebugTraceResponse is the /debug/trace ring-buffer dump (default JSON
// format; ?format=csv and ?format=chrome stream the flat and Perfetto
// renderings instead).
type DebugTraceResponse struct {
	Events  int               `json:"events"`
	Dropped uint64            `json:"dropped"`
	Counts  map[string]uint64 `json:"counts"`
	Entries []TraceEventWire  `json:"entries"`
}

// TuneRequest walks the Figure 5 tuning heuristic for one kernel on one
// core size.
type TuneRequest struct {
	Kernel string `json:"kernel"`
	// SizeKB is the core's cache size (one of the design-space sizes).
	SizeKB int `json:"size_kb"`
}

// TuneResponse lists the heuristic's exploration order and final choice.
type TuneResponse struct {
	Kernel   string   `json:"kernel"`
	SizeKB   int      `json:"size_kb"`
	Explored []string `json:"explored"`
	Best     string   `json:"best"`
}

// DesignSpaceResponse lists the Table 1 cache configurations.
type DesignSpaceResponse struct {
	Configs []string `json:"configs"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status        string `json:"status"`
	Predictor     string `json:"predictor"`
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
	// QueueDepth and WorkersBusy are the live load gauges; Saturation is
	// WorkersBusy/Workers in [0, 1] — the worker-pool utilization health
	// probes alert on.
	QueueDepth  int     `json:"queue_depth"`
	WorkersBusy int64   `json:"workers_busy"`
	Saturation  float64 `json:"saturation"`
	// WarmStart reports whether this process's characterization DBs were
	// loaded from the persistent cache (no kernel replay at startup).
	WarmStart bool `json:"warm_start"`
	// Characterization is the serving tier's cache/coalescing counter
	// snapshot (memory LRU hits, in-flight coalesces, disk hits, full
	// computes).
	Characterization characterize.TierStats `json:"characterization"`
}

// ErrorResponse is the JSON body of every non-2xx response. Code is a
// stable machine-readable discriminator; Error is the human-readable
// detail. Codes: bad_request, queue_full, draining, timeout,
// client_closed, not_found, method_not_allowed, internal.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// QueueDepth reports the job-queue depth at rejection time on
	// queue_full (429) responses, so clients can modulate their backoff
	// (first step toward admission control).
	QueueDepth int `json:"queue_depth,omitempty"`
}

// ClusterScheduleRequest runs one workload across a multi-node cluster
// (POST /v1/cluster/schedule).
type ClusterScheduleRequest struct {
	// Nodes is the cluster topology in the -cluster spec grammar
	// ("16*quad", "8*4x8;8*16x2"); empty uses the daemon's configured
	// default topology.
	Nodes string `json:"nodes,omitempty"`
	// System names the per-node scheduling system (default "proposed").
	System string `json:"system,omitempty"`
	// Scorer names the dispatcher's scoring strategy
	// ("hybrid"|"balance"|"energy"|"roundrobin"; empty uses the daemon
	// default).
	Scorer string `json:"scorer,omitempty"`
	// Arrivals is the workload length (default 500, capped by the
	// server's MaxArrivals).
	Arrivals int `json:"arrivals,omitempty"`
	// Utilization is the offered load over the whole cluster's cores
	// (default 0.9).
	Utilization float64 `json:"utilization,omitempty"`
	// Seed drives workload generation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// StealThreshold overrides the work-stealing backlog threshold
	// (0 = cluster default).
	StealThreshold int `json:"steal_threshold,omitempty"`
	// DisableStealing turns cross-node work stealing off.
	DisableStealing bool `json:"disable_stealing,omitempty"`
	// Kernels optionally weights the application mix by name.
	Kernels []string `json:"kernels,omitempty"`
	// Faults injects a cluster-level fault plan (per-node seeds are
	// derived deterministically); absent inherits the daemon's -faults
	// default.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Priority is the client-asserted request importance for admission
	// control (see ScheduleRequest.Priority).
	Priority int `json:"priority,omitempty"`
}

// ClusterNodeWire is one node's share of a cluster run.
type ClusterNodeWire struct {
	Node           int     `json:"node"`
	Shape          string  `json:"shape"`
	Cores          int     `json:"cores"`
	Jobs           int     `json:"jobs"`
	Completed      int     `json:"completed"`
	StolenIn       int     `json:"stolen_in"`
	StolenOut      int     `json:"stolen_out"`
	MaxPending     int     `json:"max_pending"`
	MakespanCycles uint64  `json:"makespan_cycles"`
	TotalEnergyNJ  float64 `json:"total_energy_nj"`
}

// ClusterScheduleResponse summarizes one cluster run.
type ClusterScheduleResponse struct {
	System    string `json:"system"`
	Scorer    string `json:"scorer"`
	Nodes     string `json:"nodes"`
	NodeCount int    `json:"node_count"`
	Cores     int    `json:"cores"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Steals    int    `json:"steals"`

	MakespanCycles   uint64 `json:"makespan_cycles"`
	TurnaroundCycles uint64 `json:"turnaround_cycles"`
	TurnaroundP50    uint64 `json:"turnaround_p50_cycles"`
	TurnaroundP95    uint64 `json:"turnaround_p95_cycles"`
	TurnaroundP99    uint64 `json:"turnaround_p99_cycles"`

	TotalEnergyNJ     float64 `json:"total_energy_nj"`
	IdleEnergyNJ      float64 `json:"idle_energy_nj"`
	DynamicEnergyNJ   float64 `json:"dynamic_energy_nj"`
	StaticEnergyNJ    float64 `json:"static_energy_nj"`
	CoreEnergyNJ      float64 `json:"core_energy_nj"`
	ProfilingEnergyNJ float64 `json:"profiling_energy_nj"`

	PerNode []ClusterNodeWire `json:"per_node"`

	// Trace block; present only when the request asked for ?trace=1 —
	// the dispatcher's route/steal audit.
	Trace *TraceBlock `json:"trace,omitempty"`
}

// ClusterStatusResponse answers GET /v1/cluster/status: the daemon's
// default topology plus cumulative cluster counters.
type ClusterStatusResponse struct {
	Nodes     string `json:"nodes"`
	NodeCount int    `json:"node_count"`
	Cores     int    `json:"cores"`
	Scorer    string `json:"scorer"`

	ClusterRuns int64 `json:"cluster_runs"`
	Steals      int64 `json:"steals_total"`
	// NodeCounters accumulates per-node-index routing counters across
	// every cluster run, keyed by node index.
	NodeCounters map[string]ClusterNodeCounters `json:"node_counters,omitempty"`
}

// ClusterNodeCounters is one node index's cumulative routing counters.
type ClusterNodeCounters struct {
	Jobs          int64   `json:"jobs"`
	StolenIn      int64   `json:"stolen_in"`
	StolenOut     int64   `json:"stolen_out"`
	MaxPending    int64   `json:"max_pending"`
	TotalEnergyNJ float64 `json:"total_energy_nj"`
}

// BatchJob is one explicit job in a batch schedule request: a named kernel
// variant (characterized on demand through the serving tier) plus optional
// arrival placement and priority.
type BatchJob struct {
	// Kernel is the benchmark name.
	Kernel string `json:"kernel"`
	// Scale, Iterations and DataSeed select the kernel variant (defaults
	// 1, 4, 1 — the canonical parameters). Non-canonical variants are what
	// make the batch path interesting: they are characterized on demand,
	// deduplicated by content key across the batch and across concurrent
	// requests.
	Scale      int   `json:"scale,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	DataSeed   int64 `json:"data_seed,omitempty"`
	// Priority orders the simulated ready queue when any job in the batch
	// sets one (higher runs first).
	Priority int `json:"priority,omitempty"`
	// ArrivalCycle places the job explicitly on the simulated timeline.
	// Either every job in the batch sets it or none does; when none does,
	// arrivals are spread deterministically at the request's utilization.
	ArrivalCycle *uint64 `json:"arrival_cycle,omitempty"`
}

// BatchScheduleRequest runs an explicit job array through one simulator
// pass (POST /v1/schedule/batch): distinct kernel variants are
// characterized once, then the whole set is scheduled together.
type BatchScheduleRequest struct {
	// System names the scheduling system (default "proposed").
	System string `json:"system,omitempty"`
	// Utilization spreads implicit arrivals (jobs without arrival_cycle)
	// over a deterministic horizon at this offered load (default 0.9).
	Utilization float64 `json:"utilization,omitempty"`
	// Preemptive lets higher-priority arrivals preempt running jobs (only
	// meaningful when jobs carry priorities).
	Preemptive bool `json:"preemptive,omitempty"`
	// Priority is the client-asserted request importance for admission
	// control; the effective value is the maximum of this and every job's
	// priority.
	Priority int `json:"priority,omitempty"`
	// Jobs is the batch (1 to the server's MaxArrivals). Invalid jobs are
	// reported per-row and never fail the batch.
	Jobs []BatchJob `json:"jobs"`
}

// BatchJobResult is one request job's outcome, order-stable with the
// request's jobs array. A row with a non-empty Error was rejected during
// validation and excluded from the simulation; the rest of its fields are
// zero.
type BatchJobResult struct {
	Index  int    `json:"index"`
	Kernel string `json:"kernel"`
	Error  string `json:"error,omitempty"`

	ArrivalCycle     uint64 `json:"arrival_cycle"`
	StartCycle       uint64 `json:"start_cycle"`
	CompletionCycle  uint64 `json:"completion_cycle"`
	TurnaroundCycles uint64 `json:"turnaround_cycles"`
	// Core and Config describe the job's final execution interval;
	// Executions counts its intervals (re-dispatches, preemption resumes).
	Core       int    `json:"core"`
	Config     string `json:"config"`
	Executions int    `json:"executions"`
	Profiled   bool   `json:"profiled"`
}

// BatchCharacterizationWire reports how this batch's distinct variants
// were characterized, per serving-tier level.
type BatchCharacterizationWire struct {
	UniqueVariants int `json:"unique_variants"`
	Memory         int `json:"memory"`
	Coalesced      int `json:"coalesced"`
	Disk           int `json:"disk"`
	Computed       int `json:"computed"`
}

// BatchScheduleResponse answers POST /v1/schedule/batch.
type BatchScheduleResponse struct {
	System string `json:"system"`
	Jobs   int    `json:"jobs"`
	// Scheduled counts jobs that entered the simulation; Rejected counts
	// per-row validation failures (see each row's error).
	Scheduled int `json:"scheduled"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	MakespanCycles uint64 `json:"makespan_cycles"`
	TurnaroundP50  uint64 `json:"turnaround_p50_cycles"`
	TurnaroundP95  uint64 `json:"turnaround_p95_cycles"`
	TurnaroundP99  uint64 `json:"turnaround_p99_cycles"`

	TotalEnergyNJ float64 `json:"total_energy_nj"`

	Characterization BatchCharacterizationWire `json:"characterization"`
	Results          []BatchJobResult          `json:"results"`
}

// BatchClusterScheduleRequest is the cluster variant of the batch endpoint
// (POST /v1/cluster/schedule/batch): the same explicit job array, routed
// across a multi-node topology by the two-level dispatcher.
type BatchClusterScheduleRequest struct {
	// Nodes is the topology in the -cluster spec grammar; empty uses the
	// daemon default.
	Nodes string `json:"nodes,omitempty"`
	// System names the per-node scheduling system (default "proposed").
	System string `json:"system,omitempty"`
	// Scorer names the dispatcher scoring strategy (empty = daemon
	// default).
	Scorer string `json:"scorer,omitempty"`
	// Utilization spreads implicit arrivals over the cluster's total core
	// count (default 0.9).
	Utilization float64 `json:"utilization,omitempty"`
	// StealThreshold and DisableStealing tune cross-node work stealing.
	StealThreshold  int  `json:"steal_threshold,omitempty"`
	DisableStealing bool `json:"disable_stealing,omitempty"`
	// Priority is the client-asserted request importance for admission
	// control; the effective value is the maximum of this and every job's
	// priority.
	Priority int `json:"priority,omitempty"`
	// Jobs is the batch; invalid jobs are reported per-row, never failing
	// the batch.
	Jobs []BatchJob `json:"jobs"`
}

// BatchClusterScheduleResponse answers POST /v1/cluster/schedule/batch:
// the cluster run summary plus the batch bookkeeping. Per-job placement is
// a single-node concept; the cluster variant reports rejected rows only.
type BatchClusterScheduleResponse struct {
	ClusterScheduleResponse

	Scheduled int `json:"scheduled"`
	Rejected  int `json:"rejected"`

	Characterization BatchCharacterizationWire `json:"characterization"`
	// RejectedJobs lists the per-row validation failures (index, kernel,
	// error), if any.
	RejectedJobs []BatchJobResult `json:"rejected_jobs,omitempty"`
}
