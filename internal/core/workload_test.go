package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hetsched/internal/characterize"
	"hetsched/internal/energy"
)

func TestWorkloadValidation(t *testing.T) {
	bad := []WorkloadConfig{
		{Arrivals: 0, AppIDs: []int{0}, HorizonCycles: 100},
		{Arrivals: 10, AppIDs: nil, HorizonCycles: 100},
		{Arrivals: 10, AppIDs: []int{0}, HorizonCycles: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateWorkload(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWorkloadSortedAndInRange(t *testing.T) {
	cfg := WorkloadConfig{
		Arrivals:      500,
		AppIDs:        []int{3, 7, 11},
		HorizonCycles: 1_000_000,
		Seed:          9,
	}
	jobs, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 500 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	apps := map[int]int{}
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d has index %d", i, j.Index)
		}
		if i > 0 && jobs[i-1].ArrivalCycle > j.ArrivalCycle {
			t.Fatal("jobs not sorted by arrival")
		}
		if j.ArrivalCycle >= cfg.HorizonCycles {
			t.Errorf("arrival %d beyond horizon", j.ArrivalCycle)
		}
		apps[j.AppID]++
	}
	for _, id := range cfg.AppIDs {
		if apps[id] == 0 {
			t.Errorf("app %d never drawn in 500 arrivals", id)
		}
	}
	for id := range apps {
		found := false
		for _, want := range cfg.AppIDs {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unknown app %d drawn", id)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Arrivals: 100, AppIDs: []int{0, 1}, HorizonCycles: 1000, Seed: 4}
	a, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	cfg.Seed = 5
	c, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestHorizonForUtilization(t *testing.T) {
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	ids := AllAppIDs(db)
	h1, err := HorizonForUtilization(db, ids, 1000, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HorizonForUtilization(db, ids, 1000, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if h2 >= h1 {
		t.Errorf("higher utilization should shrink horizon: %d vs %d", h2, h1)
	}
	h4, err := HorizonForUtilization(db, ids, 2000, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h4 <= h1 {
		t.Errorf("more arrivals should grow horizon: %d vs %d", h4, h1)
	}
	if _, err := HorizonForUtilization(db, ids, 1000, 4, 0); err == nil {
		t.Error("zero utilization accepted")
	}
	if _, err := HorizonForUtilization(db, ids, 1000, 4, 1e-300); err == nil {
		t.Error("a horizon past the int64 cycle range accepted")
	}
	if _, err := HorizonForUtilization(db, ids, 1000, 0, 0.5); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := HorizonForUtilization(db, nil, 1000, 4, 0.5); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := HorizonForUtilization(db, []int{999}, 1000, 4, 0.5); err == nil {
		t.Error("unknown app accepted")
	}
}

// Core owns one arrival process (the paper's uniform stream) and the
// ordering contract every other arrival source hands its jobs through:
// FinishWorkload sorts by (arrival, app) and assigns indices.
func TestArrivalModels(t *testing.T) {
	cfg := WorkloadConfig{
		Arrivals:      2000,
		AppIDs:        []int{0, 1, 2},
		HorizonCycles: 10_000_000,
		Seed:          5,
	}
	jobs, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != cfg.Arrivals {
		t.Fatalf("uniform: %d jobs", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ArrivalCycle > jobs[i].ArrivalCycle {
			t.Fatal("uniform: not sorted")
		}
	}

	// A hand-built stream, as a non-uniform source or a replayed trace
	// produces it: out of order, with an arrival tie broken by app.
	raw := []Job{
		{AppID: 2, ArrivalCycle: 300},
		{AppID: 1, ArrivalCycle: 100},
		{AppID: 0, ArrivalCycle: 300},
		{AppID: 4, ArrivalCycle: 0},
	}
	got := FinishWorkload(raw)
	want := []struct {
		app     int
		arrival uint64
	}{{4, 0}, {1, 100}, {0, 300}, {2, 300}}
	if len(got) != len(want) {
		t.Fatalf("finished %d jobs, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Index != i || got[i].AppID != w.app || got[i].ArrivalCycle != w.arrival {
			t.Errorf("job %d = {index %d, app %d, arrival %d}, want {index %d, app %d, arrival %d}",
				i, got[i].Index, got[i].AppID, got[i].ArrivalCycle, i, w.app, w.arrival)
		}
	}
}

// TestFinishWorkloadMatchesSortSlice pins FinishWorkload's order, ties
// included, to the sort.Slice it replaced: on inputs dense with jobs tied on
// both (arrival, app), each tagged by its input position in Priority, the
// two sorts must leave every job in the same place.
func TestFinishWorkloadMatchesSortSlice(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		arrivals, apps := 1+rng.Intn(40), 1+rng.Intn(4)
		raw := make([]Job, n)
		for i := range raw {
			raw[i] = Job{AppID: rng.Intn(apps), ArrivalCycle: uint64(rng.Intn(arrivals)), Priority: i}
		}
		switch seed % 4 { // pdqsort's sorted, reversed and all-equal paths
		case 1:
			slices.SortFunc(raw, func(a, b Job) int { return cmp.Compare(a.ArrivalCycle, b.ArrivalCycle) })
		case 2:
			slices.SortFunc(raw, func(a, b Job) int { return cmp.Compare(b.ArrivalCycle, a.ArrivalCycle) })
		case 3:
			for i := range raw {
				raw[i].AppID, raw[i].ArrivalCycle = 0, 7
			}
		}
		want := slices.Clone(raw)
		sort.Slice(want, func(i, j int) bool {
			if want[i].ArrivalCycle != want[j].ArrivalCycle {
				return want[i].ArrivalCycle < want[j].ArrivalCycle
			}
			return want[i].AppID < want[j].AppID
		})
		got := FinishWorkload(slices.Clone(raw))
		for i := range got {
			if got[i].Index != i || got[i].Priority != want[i].Priority {
				t.Fatalf("seed %d (%d jobs): position %d holds input job %d (index %d), sort.Slice puts %d there",
					seed, n, i, got[i].Priority, got[i].Index, want[i].Priority)
			}
		}
	}
}

func TestTurnaroundPercentiles(t *testing.T) {
	m := Metrics{Turnarounds: []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	cases := []struct {
		p    float64
		want uint64
	}{
		{50, 50}, {90, 90}, {100, 100}, {10, 10}, {1, 10},
	}
	for _, tc := range cases {
		if got := m.TurnaroundPercentile(tc.p); got != tc.want {
			t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := (Metrics{}).TurnaroundPercentile(50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	if got := m.TurnaroundPercentile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := m.TurnaroundPercentile(101); got != 0 {
		t.Errorf("p101 = %d, want 0", got)
	}
}

func TestPercentilesPopulatedByRun(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 200, 0.7, 12)
	sim, err := NewSimulator(db, energyDefaultForTest(), BasePolicy{}, nil,
		SimConfig{CoreSizesKB: BaseCoreSizes(4)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Turnarounds) != len(jobs) {
		t.Fatalf("recorded %d turnarounds for %d jobs", len(m.Turnarounds), len(jobs))
	}
	p50 := m.TurnaroundPercentile(50)
	p99 := m.TurnaroundPercentile(99)
	if p50 == 0 || p99 < p50 {
		t.Errorf("implausible percentiles p50=%d p99=%d", p50, p99)
	}
	var sum uint64
	for _, v := range m.Turnarounds {
		sum += v
	}
	if sum != m.TurnaroundCycles {
		t.Errorf("per-job turnarounds sum %d != aggregate %d", sum, m.TurnaroundCycles)
	}
}

func TestAllAppIDs(t *testing.T) {
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	ids := AllAppIDs(db)
	if len(ids) != len(db.Records) {
		t.Fatalf("AllAppIDs returned %d ids", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Errorf("ids[%d] = %d", i, id)
		}
	}
}

func energyDefaultForTest() *energy.Model { return energy.NewDefault() }

// TestGenerateWorkloadMatchesFinish pins GenerateWorkload's sort of the
// bare draws to FinishWorkload's sort of whole jobs, on tiny horizons
// where most arrivals tie on (ArrivalCycle, AppID).
func TestGenerateWorkloadMatchesFinish(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := WorkloadConfig{Arrivals: 300, AppIDs: []int{0, 1, 2, 3}, HorizonCycles: uint64(1 + seed%7), Seed: seed}
		got, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]Job, cfg.Arrivals)
		for i := range jobs {
			jobs[i].AppID = cfg.AppIDs[rng.Intn(len(cfg.AppIDs))]
			jobs[i].ArrivalCycle = uint64(rng.Int63n(int64(cfg.HorizonCycles)))
		}
		if want := FinishWorkload(jobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: GenerateWorkload differs from FinishWorkload of the same draws", seed)
		}
	}
}
