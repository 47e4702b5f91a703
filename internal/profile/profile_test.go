package profile

import (
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/stats"
)

func TestEnsureAndLookup(t *testing.T) {
	tbl := NewTable()
	if tbl.Lookup(3) != nil {
		t.Error("lookup on empty table returned entry")
	}
	e := tbl.Ensure(3)
	if e == nil || e.AppID != 3 {
		t.Fatalf("Ensure returned %+v", e)
	}
	if tbl.Ensure(3) != e {
		t.Error("Ensure created a second entry for the same app")
	}
	if tbl.Lookup(3) != e {
		t.Error("Lookup does not return the ensured entry")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestProfileLifecycle(t *testing.T) {
	tbl := NewTable()
	e := tbl.Ensure(0)
	if e.Profiled {
		t.Error("fresh entry claims profiled")
	}
	var f stats.Features
	f[0] = 12345
	e.SetProfile(f)
	if !e.Profiled || e.Features[0] != 12345 {
		t.Error("profile not stored")
	}
}

func TestSetPredictionValidation(t *testing.T) {
	e := NewTable().Ensure(0)
	if err := e.SetPrediction(4); err != nil {
		t.Errorf("SetPrediction(4): %v", err)
	}
	if e.PredictedSizeKB != 4 {
		t.Errorf("prediction = %d", e.PredictedSizeKB)
	}
	if err := e.SetPrediction(3); err == nil {
		t.Error("SetPrediction(3) succeeded")
	}
	if err := e.SetPrediction(0); err == nil {
		t.Error("SetPrediction(0) succeeded")
	}
}

func TestRecordExecutionAndLookup(t *testing.T) {
	e := NewTable().Ensure(0)
	cfg := cache.Config{SizeKB: 4, Ways: 2, LineBytes: 32}
	if err := e.RecordExecution(cfg, 123.5, 9999); err != nil {
		t.Fatal(err)
	}
	ci, ok := e.Execution(cfg)
	if !ok || ci.Energy != 123.5 || ci.Cycles != 9999 {
		t.Errorf("stored execution %+v", ci)
	}
	if _, ok := e.Execution(cache.BaseConfig); ok {
		t.Error("unexplored config reported known")
	}
	if e.ExploredCount() != 1 {
		t.Errorf("explored count %d", e.ExploredCount())
	}
	if err := e.RecordExecution(cache.Config{}, 1, 1); err == nil {
		t.Error("RecordExecution(invalid config) succeeded")
	}
	if err := e.RecordExecution(cfg, -1, 1); err == nil {
		t.Error("RecordExecution(negative energy) succeeded")
	}
}

func TestExploredConfigsDeterministicOrder(t *testing.T) {
	e := NewTable().Ensure(0)
	configs := []cache.Config{
		{SizeKB: 8, Ways: 4, LineBytes: 64},
		{SizeKB: 2, Ways: 1, LineBytes: 16},
		{SizeKB: 4, Ways: 2, LineBytes: 32},
	}
	for _, c := range configs {
		if err := e.RecordExecution(c, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := e.ExploredConfigs()
	if len(got) != 3 {
		t.Fatalf("explored %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].String() >= got[i].String() {
			t.Errorf("explored configs not sorted: %v", got)
		}
	}
}

func TestTunerPersistsAcrossCalls(t *testing.T) {
	e := NewTable().Ensure(0)
	tn1, err := e.Tuner(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := tn1.Next()
	if err := tn1.Observe(cfg, 50); err != nil {
		t.Fatal(err)
	}
	tn2, err := e.Tuner(8)
	if err != nil {
		t.Fatal(err)
	}
	if tn1 != tn2 {
		t.Error("Tuner returned a fresh state machine; exploration must resume")
	}
	if _, err := e.Tuner(64); err == nil {
		t.Error("Tuner(64KB) succeeded")
	}
}

func TestBestForSizeRequiresFinishedTuner(t *testing.T) {
	e := NewTable().Ensure(0)
	if _, ok := e.BestForSize(8); ok {
		t.Error("best known before any tuning")
	}
	tn, err := e.Tuner(2)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the 2KB tuner to completion, recording executions as the
	// scheduler would.
	for !tn.Done() {
		cfg, _ := tn.Next()
		energy := float64(1000 + cfg.LineBytes) // 16B best
		if err := e.RecordExecution(cfg, energy, 1000); err != nil {
			t.Fatal(err)
		}
		if err := tn.Observe(cfg, energy); err != nil {
			t.Fatal(err)
		}
	}
	ci, ok := e.BestForSize(2)
	if !ok {
		t.Fatal("best not known after tuner finished")
	}
	want := cache.Config{SizeKB: 2, Ways: 1, LineBytes: 16}
	if ci.Config != want {
		t.Errorf("best = %s, want %s", ci.Config, want)
	}
}

func TestKnowsBestForAll(t *testing.T) {
	e := NewTable().Ensure(0)
	finish := func(sizeKB int) {
		tn, err := e.Tuner(sizeKB)
		if err != nil {
			t.Fatal(err)
		}
		for !tn.Done() {
			cfg, _ := tn.Next()
			if err := e.RecordExecution(cfg, 100, 10); err != nil {
				t.Fatal(err)
			}
			if err := tn.Observe(cfg, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	sizes := []int{2, 4}
	if e.KnowsBestForAll(sizes) {
		t.Error("claims knowledge before tuning")
	}
	finish(2)
	if e.KnowsBestForAll(sizes) {
		t.Error("claims knowledge with 4KB untuned")
	}
	finish(4)
	if !e.KnowsBestForAll(sizes) {
		t.Error("knowledge not recognized after tuning both sizes")
	}
}
