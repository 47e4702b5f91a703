package eembc

import (
	"testing"
)

// TestRecordTraceSizedFromMemOps: the recorded access count equals the
// Loads+Stores counters (the invariant the memoized preallocation relies
// on), and a repeated recording of the same variant comes back with its
// buffer sized exactly — no append growth left over.
func TestRecordTraceSizedFromMemOps(t *testing.T) {
	k, err := ByName("a2time")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 2, Seed: 9}

	ctr, tr, err := Record(k, p)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(tr.Len()) != ctr.MemOps() {
		t.Fatalf("trace length %d != MemOps %d", tr.Len(), ctr.MemOps())
	}

	// Second run: memoized count -> exact capacity.
	_, tr2, err := Record(k, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Accesses) != cap(tr2.Accesses) {
		t.Errorf("warm Record: len %d != cap %d (buffer not exactly presized)",
			len(tr2.Accesses), cap(tr2.Accesses))
	}
}

// TestRecordAllocsSteadyState: with the memo warm, recording allocates a
// constant number of times regardless of trace length — i.e. the trace
// buffer is one allocation, not a growth series. Recording at 4 iterations
// and at 16 must cost the same allocation count.
func TestRecordAllocsSteadyState(t *testing.T) {
	k, err := ByName("tblook")
	if err != nil {
		t.Fatal(err)
	}
	allocsFor := func(p Params) float64 {
		if _, _, err := Record(k, p); err != nil { // warm the memo
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Record(k, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := allocsFor(Params{Scale: 1, Iterations: 4, Seed: 5})
	long := allocsFor(Params{Scale: 1, Iterations: 16, Seed: 5})
	if short != long {
		t.Errorf("allocs grew with trace length: %.0f at 4 iterations, %.0f at 16 (append growth not eliminated)", short, long)
	}
}

// BenchmarkRecordTrace reports the record-time allocation profile with a
// warm memo (the steady state of every replay characterization run after
// the first).
func BenchmarkRecordTrace(b *testing.B) {
	k, err := ByName("a2time")
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	b.Run("structured", func(b *testing.B) {
		if _, _, err := Record(k, p); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Record(k, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
