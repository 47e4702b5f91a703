package server

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/eembc"
)

// coldPlan is a batch plan over n never-seen variants (data seed 100+i of
// the first n kernels), plus the extra variants given.
func coldPlan(n int, extra ...characterize.Variant) *batchPlan {
	p := &batchPlan{}
	for i, name := range eembc.Names()[:n] {
		params := eembc.DefaultParams()
		params.Seed = int64(100 + i)
		p.variants = append(p.variants, characterize.Variant{Kernel: name, Params: params})
	}
	p.variants = append(p.variants, extra...)
	return p
}

// TestCharacterizeBatchSerialMatchesConcurrent: one lookup at a time
// (GOMAXPROCS 1, which also keeps each compute serial) and concurrent
// lookups with overlapped computes (GOMAXPROCS 4) must build DeepEqual
// DBs and count the same sources.
func TestCharacterizeBatchSerialMatchesConcurrent(t *testing.T) {
	plan := coldPlan(6)
	run := func(procs int) (*hetsched.DB, BatchCharacterizationWire) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, _ := newTestServer(t, Config{Workers: 2})
		db, wire, err := s.characterizeBatch(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		return db, wire
	}
	serialDB, serialWire := run(1)
	concDB, concWire := run(4)
	if !reflect.DeepEqual(serialDB, concDB) {
		t.Fatal("concurrent lookups built a different batch DB than serial ones")
	}
	if serialWire != concWire || concWire.Computed != len(plan.variants) {
		t.Fatalf("sources: serial %+v, concurrent %+v; want %d computed", serialWire, concWire, len(plan.variants))
	}
}

// TestCharacterizeBatchLowestIndexError: with several failing variants in
// flight, the reported error is the lowest-index one, whichever lookup
// finishes first.
func TestCharacterizeBatchLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bad := func(kernel string) characterize.Variant {
		return characterize.Variant{Kernel: kernel, Params: eembc.Params{Scale: 0, Iterations: 4, Seed: 1}}
	}
	s, _ := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 5; i++ {
		plan := coldPlan(2, bad("tblook"), bad("aifirf"), bad("cacheb"))
		_, _, err := s.characterizeBatch(context.Background(), plan)
		if err == nil || !strings.Contains(err.Error(), "characterize tblook:") {
			t.Fatalf("error %v, want the failure of tblook (index 2)", err)
		}
	}
}

// TestCharacterizeBatchCanceled: a canceled context launches no lookup.
func TestCharacterizeBatchCanceled(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.characterizeBatch(ctx, coldPlan(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if st := s.tier.Stats(); st.Requests != 0 {
		t.Fatalf("canceled batch issued %d tier lookups", st.Requests)
	}
}
