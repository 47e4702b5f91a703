package scenario

import (
	"reflect"
	"sort"
	"testing"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
)

func testDB(t testing.TB) *characterize.DB {
	t.Helper()
	db, err := characterize.Default()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testParams(db *characterize.DB, seed int64) Params {
	return Params{DB: db, Arrivals: 400, Cores: 4, Utilization: 0.8, Seed: seed}
}

// openSpecs covers every generator that synthesizes its own arrivals.
var openSpecs = []string{
	"uniform",
	"poisson",
	"bursty",
	"bursty:burst=8,quiet=0.1,phases=4",
	"diurnal",
	"diurnal:amp=0.3,periods=2",
	"closed",
	"closed:clients=4,think=2",
}

// TestGenerateDeterministic pins the determinism contract: a fixed
// (spec, Params) pair produces the identical job stream on every call.
func TestGenerateDeterministic(t *testing.T) {
	db := testDB(t)
	for _, s := range openSpecs {
		sp := MustParse(s)
		a, err := sp.Generate(testParams(db, 7))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, err := sp.Generate(testParams(db, 7))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with the same seed differ", s)
		}
		c, err := sp.Generate(testParams(db, 8))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical workloads", s)
		}
	}
}

// TestGenerateShape checks the structural invariants every source must
// provide: the requested count, arrivals sorted, indices sequential, and
// app IDs drawn from the population.
func TestGenerateShape(t *testing.T) {
	db := testDB(t)
	ids := map[int]bool{}
	for _, id := range core.AllAppIDs(db) {
		ids[id] = true
	}
	for _, s := range openSpecs {
		sp := MustParse(s)
		jobs, err := sp.Generate(testParams(db, 3))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(jobs) != 400 {
			t.Fatalf("%s: %d jobs, want 400", s, len(jobs))
		}
		if !sort.SliceIsSorted(jobs, func(i, j int) bool {
			return jobs[i].ArrivalCycle < jobs[j].ArrivalCycle
		}) {
			t.Errorf("%s: arrivals not sorted", s)
		}
		for i, j := range jobs {
			if j.Index != i {
				t.Fatalf("%s: job %d has index %d", s, i, j.Index)
			}
			if !ids[j.AppID] {
				t.Fatalf("%s: job %d has app %d outside the population", s, i, j.AppID)
			}
			if j.Deadlined() {
				t.Fatalf("%s: job %d has a deadline without an SLO section", s, i)
			}
		}
	}
}

// TestUniformMatchesLegacyGenerator pins the uniform source to the legacy
// core.GenerateWorkload stream bit for bit — the compatibility guarantee
// that lets -scenario "uniform..." reproduce historical runs.
func TestUniformMatchesLegacyGenerator(t *testing.T) {
	db := testDB(t)
	appIDs := core.AllAppIDs(db)
	const n, util = 500, 0.9
	horizon, err := core.HorizonForUtilization(db, appIDs, n, 4, util)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := core.GenerateWorkload(core.WorkloadConfig{
		Arrivals: n, AppIDs: appIDs, HorizonCycles: horizon, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := MustParse("uniform")
	got, err := sp.Generate(Params{DB: db, Arrivals: n, Cores: 4, Utilization: util, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, legacy) {
		t.Error("scenario uniform diverges from core.GenerateWorkload")
	}
}

// TestKernelMix checks the weighted kernel mix: the uniform source over a
// mix is core.GenerateWorkload over the mix's application IDs in list
// order (a repeated name weights its kernel), every source draws only
// from the mix, and an unknown name is an error.
func TestKernelMix(t *testing.T) {
	db := testDB(t)
	mix := []string{"a2time", "a2time", "a2time", "matrix"}
	var ids []int
	for _, name := range mix {
		rec, err := db.Find(name, eembc.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	horizon, err := core.HorizonForUtilization(db, ids, 300, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := core.GenerateWorkload(core.WorkloadConfig{
		Arrivals: 300, AppIDs: ids, HorizonCycles: horizon, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MustParse("uniform").Generate(Params{DB: db, Kernels: mix, Arrivals: 300, Cores: 4, Utilization: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, legacy) {
		t.Error("uniform over a kernel mix diverges from core.GenerateWorkload over its IDs")
	}
	for _, s := range openSpecs {
		p := testParams(db, 4)
		p.Kernels = mix
		jobs, err := MustParse(s).Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, j := range jobs {
			if j.AppID != ids[0] && j.AppID != ids[3] {
				t.Fatalf("%s: app %d outside the mix", s, j.AppID)
			}
		}
	}
	p := testParams(db, 1)
	p.Kernels = []string{"nosuch"}
	if _, err := MustParse("uniform").Generate(p); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestBurstyHasHigherVariance pins the burstiness of the arrival
// processes on a one-application stream: poisson inter-arrival gaps have
// a squared coefficient of variation near 1, and the bursty MMPP's is
// clearly above it.
func TestBurstyHasHigherVariance(t *testing.T) {
	db := testDB(t)
	cv := func(source string, seed int64) float64 {
		jobs, err := MustParse(source).Generate(Params{
			DB: db, Kernels: []string{"a2time"}, Arrivals: 4000, Cores: 4, Utilization: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		gaps := make([]float64, len(jobs)-1)
		mean := 0.0
		for i := range gaps {
			gaps[i] = float64(jobs[i+1].ArrivalCycle - jobs[i].ArrivalCycle)
			mean += gaps[i]
		}
		mean /= float64(len(gaps))
		varr := 0.0
		for _, g := range gaps {
			varr += (g - mean) * (g - mean)
		}
		varr /= float64(len(gaps))
		return varr / (mean * mean) // squared coefficient of variation
	}
	for seed := int64(1); seed <= 8; seed++ {
		poisson, bursty := cv("poisson", seed), cv("bursty", seed)
		t.Logf("seed %d squared CV: poisson %.2f, bursty %.2f", seed, poisson, bursty)
		if poisson < 0.7 || poisson > 1.4 {
			t.Errorf("seed %d: poisson squared CV %.2f far from 1", seed, poisson)
		}
		if bursty < 1.5*poisson {
			t.Errorf("seed %d: bursty squared CV %.2f not clearly above poisson %.2f", seed, bursty, poisson)
		}
	}
}

// TestSpecOverridesParams checks jobs= beats Params.Arrivals and rate=
// changes the offered load (a higher rate compresses the horizon).
func TestSpecOverridesParams(t *testing.T) {
	db := testDB(t)
	jobs, err := MustParse("poisson:jobs=123").Generate(testParams(db, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 123 {
		t.Errorf("jobs= override ignored: %d jobs", len(jobs))
	}
	slow, err := MustParse("poisson:rate=0.4").Generate(testParams(db, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MustParse("poisson:rate=1.6").Generate(testParams(db, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fast[len(fast)-1].ArrivalCycle >= slow[len(slow)-1].ArrivalCycle {
		t.Errorf("rate=1.6 span %d not tighter than rate=0.4 span %d",
			fast[len(fast)-1].ArrivalCycle, slow[len(slow)-1].ArrivalCycle)
	}
}

// TestApplySLO checks deadline stamping: every job deadlined, class
// fractions roughly honored, class slack tighter than the default, and the
// arrival stream untouched by the (salted) class draw.
func TestApplySLO(t *testing.T) {
	db := testDB(t)
	plain := MustParse("poisson:jobs=2000")
	sloed := MustParse("poisson:jobs=2000;slo=deadline:slack=3,classes=hi@0.25@1.5")
	base, err := plain.Generate(testParams(db, 5))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sloed.Generate(testParams(db, 5))
	if err != nil {
		t.Fatal(err)
	}
	nHi := 0
	for i, j := range jobs {
		if j.AppID != base[i].AppID || j.ArrivalCycle != base[i].ArrivalCycle {
			t.Fatal("SLO layer perturbed the arrival stream")
		}
		if !j.Deadlined() {
			t.Fatalf("job %d has no deadline", i)
		}
		rec, err := db.Record(j.AppID)
		if err != nil {
			t.Fatal(err)
		}
		best := rec.BestConfig().Cycles
		var wantSlack float64
		switch j.Class {
		case "hi":
			nHi++
			wantSlack = 1.5
			if j.Priority != 1 {
				t.Fatalf("job %d class hi priority %d, want 1", i, j.Priority)
			}
		case "default":
			wantSlack = 3
			if j.Priority != 0 {
				t.Fatalf("job %d default priority %d, want 0", i, j.Priority)
			}
		default:
			t.Fatalf("job %d has class %q", i, j.Class)
		}
		want := j.ArrivalCycle + uint64(wantSlack*float64(best))
		if j.DeadlineCycle != want {
			t.Fatalf("job %d deadline %d, want %d (slack %v x best %d)",
				i, j.DeadlineCycle, want, wantSlack, best)
		}
	}
	frac := float64(nHi) / float64(len(jobs))
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("hi-class fraction %.3f far from requested 0.25", frac)
	}
}

func TestApplySim(t *testing.T) {
	var cfg core.SimConfig
	MustParse("poisson").ApplySim(&cfg)
	if cfg.SLOAware || cfg.PriorityScheduling {
		t.Error("SLO-less spec armed simulator features")
	}
	MustParse("poisson;slo=deadline").ApplySim(&cfg)
	if !cfg.SLOAware || cfg.PriorityScheduling {
		t.Errorf("slo=deadline: SLOAware=%v PriorityScheduling=%v", cfg.SLOAware, cfg.PriorityScheduling)
	}
	var cfg2 core.SimConfig
	MustParse("poisson;slo=deadline:classes=hi@0.2").ApplySim(&cfg2)
	if !cfg2.SLOAware || !cfg2.PriorityScheduling {
		t.Errorf("classes: SLOAware=%v PriorityScheduling=%v", cfg2.SLOAware, cfg2.PriorityScheduling)
	}
	var cfg3 core.SimConfig
	MustParse("poisson;prio=uniform:1").ApplySim(&cfg3)
	if cfg3.SLOAware || !cfg3.PriorityScheduling {
		t.Errorf("prio: SLOAware=%v PriorityScheduling=%v", cfg3.SLOAware, cfg3.PriorityScheduling)
	}
}

// TestArrivalFractions checks the load-generator shape export: n values,
// monotone nondecreasing, within [0, 1], ending at 1, and deterministic.
func TestArrivalFractions(t *testing.T) {
	for _, s := range openSpecs {
		sp := MustParse(s)
		fr, err := ArrivalFractions(sp, 200, 9)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(fr) != 200 {
			t.Fatalf("%s: %d fractions", s, len(fr))
		}
		for i, f := range fr {
			if f < 0 || f > 1 {
				t.Fatalf("%s: fraction %d = %v out of [0,1]", s, i, f)
			}
			if i > 0 && f < fr[i-1] {
				t.Fatalf("%s: fractions not monotone at %d", s, i)
			}
		}
		if fr[len(fr)-1] != 1 {
			t.Errorf("%s: last fraction %v, want 1", s, fr[len(fr)-1])
		}
		again, err := ArrivalFractions(sp, 200, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Errorf("%s: fractions not deterministic", s)
		}
	}
	if _, err := ArrivalFractions(MustParse("replay:file=x.csv"), 10, 1); err == nil {
		t.Error("replay shaped synthetic load")
	}
}

func TestGenerateErrors(t *testing.T) {
	db := testDB(t)
	if _, err := (Spec{}).Generate(testParams(db, 1)); err == nil {
		t.Error("zero spec generated")
	}
	if _, err := MustParse("poisson").Generate(Params{Arrivals: 10, Seed: 1}); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := MustParse("poisson").Generate(Params{DB: db, Seed: 1}); err == nil {
		t.Error("zero arrivals accepted")
	}
	if _, err := (Spec{Source: "replay", Path: "/does/not/exist.csv"}).Generate(testParams(db, 1)); err == nil {
		t.Error("missing replay file accepted")
	}
}
