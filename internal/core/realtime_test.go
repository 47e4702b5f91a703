package core

import (
	"math/rand"
	"testing"

	"hetsched/internal/energy"
)

// rtJobs is a test workload with priorities drawn from [0, levels) and,
// for slack > 0, deadlines at arrival + slack × best-config cycles: the
// stamping the scenario spec's prio= and slo= terms do, which this
// package's tests cannot import.
func rtJobs(t testing.TB, n int, util float64, levels int, slack float64) []Job {
	t.Helper()
	db := testDB(t)
	jobs := testJobs(t, db, n, util, 21)
	drawPriorities(jobs, levels, 77)
	for i := range jobs {
		rec, err := db.Record(jobs[i].AppID)
		if err != nil {
			t.Fatal(err)
		}
		if slack > 0 {
			jobs[i].SetDeadline(jobs[i].ArrivalCycle + uint64(slack*float64(rec.BestConfig().Cycles)))
		}
	}
	return jobs
}

// drawPriorities gives each job a uniform random priority in [0, levels)
// from seed.
func drawPriorities(jobs []Job, levels int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := range jobs {
		jobs[i].Priority = r.Intn(levels)
	}
}

func runRT(t testing.TB, pol Policy, pred Predictor, jobs []Job, cfg SimConfig) Metrics {
	t.Helper()
	db := testDB(t)
	sim, err := NewSimulator(db, energy.NewDefault(), pol, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeadlineAccounting(t *testing.T) {
	db := testDB(t)
	jobs := rtJobs(t, 300, 0.9, 1, 1.01) // slack barely above 1: misses guaranteed under load
	m := runRT(t, BasePolicy{}, nil, jobs, SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if m.DeadlinesTotal != len(jobs) {
		t.Errorf("deadlines total %d, want %d", m.DeadlinesTotal, len(jobs))
	}
	if m.DeadlineMisses == 0 {
		t.Error("no deadline misses under near-saturation with slack 1.01")
	}
	if got := m.MissRate(); got <= 0 || got > 1 {
		t.Errorf("miss rate %v out of range", got)
	}
	_ = db
}

func TestPrioritySchedulingReordersQueue(t *testing.T) {
	// Two priority classes under heavy load: high-priority jobs must see
	// better turnaround with priority scheduling than without.
	jobs := rtJobs(t, 500, 1.2, 2, 0)
	cfgFIFO := SimConfig{CoreSizesKB: BaseCoreSizes(4)}
	cfgPrio := SimConfig{CoreSizesKB: BaseCoreSizes(4), PriorityScheduling: true}

	turnaroundHigh := func(m Metrics) float64 { return float64(m.TurnaroundCycles) }
	fifo := runRT(t, BasePolicy{}, nil, jobs, cfgFIFO)
	prio := runRT(t, BasePolicy{}, nil, jobs, cfgPrio)
	if fifo.Completed != prio.Completed {
		t.Fatalf("completion mismatch %d vs %d", fifo.Completed, prio.Completed)
	}
	// Aggregate turnaround cannot improve much (work conserving), but it
	// must not explode either; the real check is on high-priority latency,
	// which needs per-job data — approximate with makespan equality and a
	// sanity band on turnaround.
	ratio := turnaroundHigh(prio) / turnaroundHigh(fifo)
	if ratio > 1.5 || ratio < 0.5 {
		t.Errorf("priority scheduling changed aggregate turnaround by %vx", ratio)
	}
}

func TestSortByPriorityStable(t *testing.T) {
	queue := []*Job{
		{Index: 0, Priority: 0},
		{Index: 1, Priority: 2},
		{Index: 2, Priority: 1},
		{Index: 3, Priority: 2},
		{Index: 4, Priority: 0},
	}
	sortByPriority(queue)
	wantOrder := []int{1, 3, 2, 0, 4}
	for i, want := range wantOrder {
		if queue[i].Index != want {
			t.Fatalf("position %d: job %d, want %d (order %v)", i, queue[i].Index, want, queue)
		}
	}
}

func TestPreemptionDisplacesLowPriority(t *testing.T) {
	jobs := rtJobs(t, 400, 1.3, 3, 0) // overloaded: preemption opportunities abound
	cfg := SimConfig{
		CoreSizesKB:        BaseCoreSizes(4),
		PriorityScheduling: true,
		Preemptive:         true,
	}
	m := runRT(t, BasePolicy{}, nil, jobs, cfg)
	if m.Preemptions == 0 {
		t.Error("no preemptions under overload with 3 priority levels")
	}
	if m.Completed != len(jobs) {
		t.Errorf("completed %d of %d (preempted jobs must finish)", m.Completed, len(jobs))
	}
}

func TestPreemptionEnergyConservation(t *testing.T) {
	// Energy with preemption must stay within a sane band of the
	// non-preemptive run: refunds must not create or destroy energy
	// wholesale (reconfiguration overhead adds a little).
	jobs := rtJobs(t, 400, 1.3, 3, 0)
	base := runRT(t, BasePolicy{}, nil, jobs, SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	pre := runRT(t, BasePolicy{}, nil, jobs, SimConfig{
		CoreSizesKB:        BaseCoreSizes(4),
		PriorityScheduling: true,
		Preemptive:         true,
	})
	ratio := pre.TotalEnergy() / base.TotalEnergy()
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("preemptive energy %vx of non-preemptive; conservation broken", ratio)
	}
	for _, v := range []float64{pre.DynamicEnergy, pre.StaticEnergy, pre.CoreEnergy} {
		if v < 0 {
			t.Errorf("negative energy component after refunds: %+v", pre)
		}
	}
}

func TestPreemptiveProposedEndToEnd(t *testing.T) {
	db := testDB(t)
	jobs := rtJobs(t, 500, 1.2, 3, 4)
	cfg := DefaultSimConfig()
	cfg.PriorityScheduling = true
	cfg.Preemptive = true
	m := runRT(t, ProposedPolicy{}, OraclePredictor{DB: db}, jobs, cfg)
	if m.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", m.Completed, len(jobs))
	}
	if m.Preemptions == 0 {
		t.Error("proposed system never preempted under overload")
	}
	if m.DeadlinesTotal != len(jobs) {
		t.Errorf("deadlines tracked %d, want %d", m.DeadlinesTotal, len(jobs))
	}
}

// Priority+preemption must reduce the miss rate of high-priority deadlines
// versus plain FIFO under contention — the reason the extension exists.
func TestPreemptionHelpsDeadlines(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 600, 1.1, 31)
	// High-priority jobs get tight deadlines; low-priority jobs none.
	drawPriorities(jobs, 2, 3)
	for i := range jobs {
		if jobs[i].Priority == 1 {
			rec, err := db.Record(jobs[i].AppID)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i].DeadlineCycle = jobs[i].ArrivalCycle + 3*rec.BestConfig().Cycles
		}
	}
	fifo := runRT(t, BasePolicy{}, nil, jobs, SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	rt := runRT(t, BasePolicy{}, nil, jobs, SimConfig{
		CoreSizesKB:        BaseCoreSizes(4),
		PriorityScheduling: true,
		Preemptive:         true,
	})
	if rt.MissRate() >= fifo.MissRate() {
		t.Errorf("preemptive priority scheduling did not reduce deadline misses: %.3f vs %.3f",
			rt.MissRate(), fifo.MissRate())
	}
	t.Logf("deadline miss rate: FIFO %.3f -> preemptive %.3f", fifo.MissRate(), rt.MissRate())
}

func TestPreemptValidation(t *testing.T) {
	db := testDB(t)
	sim, err := NewSimulator(db, energy.NewDefault(), BasePolicy{}, nil,
		SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.preempt(sim.Cores()[0]); err == nil {
		t.Error("preempting an idle core succeeded")
	}
}

// TestZeroCycleDeadlineCounted is the regression test for the legacy
// ambiguity where DeadlineCycle == 0 doubled as "no deadline": a computed
// deadline landing exactly on cycle 0 was silently dropped from the miss
// accounting. SetDeadline(0) must now count (and miss), while a job
// without a deadline stays out of deadline accounting.
func TestZeroCycleDeadlineCounted(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 2, 0.5, 9)
	jobs[0].SetDeadline(0) // impossible deadline: always a miss, never dropped
	if !jobs[0].Deadlined() {
		t.Fatal("SetDeadline(0) job not Deadlined")
	}
	m := runRT(t, BasePolicy{}, nil, jobs, SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if m.DeadlinesTotal != 1 {
		t.Errorf("deadlines total %d, want 1 (zero-cycle deadline dropped?)", m.DeadlinesTotal)
	}
	if m.DeadlineMisses != 1 {
		t.Errorf("deadline misses %d, want 1", m.DeadlineMisses)
	}
	// Legacy callers writing DeadlineCycle directly keep working.
	legacy := Job{DeadlineCycle: 500}
	if !legacy.Deadlined() {
		t.Error("non-zero DeadlineCycle without the explicit bit not Deadlined")
	}
}
