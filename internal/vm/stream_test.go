package vm

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hetsched/internal/isa"
)

// collectBatch records every packed access it receives, preserving order, so
// a StreamSink's chunked delivery can be compared against a recorded trace.
type collectBatch struct {
	packed []uint64
	calls  int
	sizes  []int // each batch's length, when non-nil
}

func (c *collectBatch) AccessBatch(packed []uint64) {
	c.calls++
	c.packed = append(c.packed, packed...)
	if c.sizes != nil {
		c.sizes = append(c.sizes, len(packed))
	}
}

// TestStreamSinkMatchesFlatTrace drives the same access stream into a
// StreamSink and a recorded Trace and requires every aggregate the
// characterization pipeline consumes to agree: counts, both feature-vector
// footprints, and the exact packed stream delivered to the batch sink.
func TestStreamSinkMatchesFlatTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tr Trace
	var got collectBatch
	ss := NewStreamSink(&got, 1<<20)
	n := 3*StreamChunk + 137 // several full chunks plus a partial
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 20))
		write := rng.Intn(3) == 0
		tr.Access(addr, write)
		ss.Access(addr, write)
	}
	ss.Flush()
	if ss.Len() != tr.Len() {
		t.Fatalf("Len: stream %d, trace %d", ss.Len(), tr.Len())
	}
	for _, block := range []int{16, 64} {
		if g, w := ss.Footprint(block), tr.Footprint(block); g != w {
			t.Fatalf("Footprint(%d): stream %d, trace %d", block, g, w)
		}
	}
	if len(got.packed) != tr.Len() {
		t.Fatalf("delivered %d packed accesses, want %d", len(got.packed), tr.Len())
	}
	for i, a := range tr.Accesses {
		if w := Pack(a.Addr, a.Write); got.packed[i] != w {
			t.Fatalf("packed access %d: stream %#x, trace %#x", i, got.packed[i], w)
		}
	}
	if got.calls < n/StreamChunk {
		t.Fatalf("expected chunked delivery, got %d batch calls for %d accesses", got.calls, n)
	}
}

func TestPackUnpack(t *testing.T) {
	cases := []struct {
		addr  uint64
		write bool
	}{{0, false}, {0, true}, {1, false}, {0xdeadbeef, true}, {1 << 62, false}}
	for _, c := range cases {
		addr, write := Unpack(Pack(c.addr, c.write))
		if addr != c.addr || write != c.write {
			t.Fatalf("Pack/Unpack(%#x,%v) = (%#x,%v)", c.addr, c.write, addr, write)
		}
	}
}

// TestStreamSinkFootprintContract pins the granularity contract: only
// positive multiples of the 16-byte tracking grain are answerable; anything
// else returns -1 instead of a silently wrong count.
func TestStreamSinkFootprintContract(t *testing.T) {
	ss := NewStreamSink(&collectBatch{}, 1<<12)
	ss.Access(0, false)
	ss.Access(100, true)
	for _, bad := range []int{-16, 0, 8, 24, 40} {
		if got := ss.Footprint(bad); got != -1 {
			t.Errorf("Footprint(%d) = %d, want -1", bad, got)
		}
	}
	if got := ss.Footprint(16); got != 2 {
		t.Errorf("Footprint(16) = %d, want 2", got)
	}
	if got := ss.Footprint(128); got != 1 {
		t.Errorf("Footprint(128) = %d, want 1", got)
	}
}

// TestStreamSinkGrowsBeyondHint covers the bitset growth path: a sink whose
// construction hint undersold the address space must still count exactly.
func TestStreamSinkGrowsBeyondHint(t *testing.T) {
	for _, hint := range []int{0, 64} {
		ss := NewStreamSink(&collectBatch{}, hint)
		var tr Trace
		for i := 0; i < 2000; i++ {
			addr := uint64(i) * 48 // walks far past any small hint
			ss.Access(addr, false)
			tr.Access(addr, false)
		}
		if g, w := ss.Footprint(16), tr.Footprint(16); g != w {
			t.Errorf("hint %d: Footprint(16) = %d, want %d", hint, g, w)
		}
		if g, w := ss.Footprint(64), tr.Footprint(64); g != w {
			t.Errorf("hint %d: Footprint(64) = %d, want %d", hint, g, w)
		}
	}
}

// TestStreamSinkResetReuse runs one sink across three different programs with
// Reset in between and requires each run's aggregates to match a fresh sink
// fed the same stream — the per-worker reuse contract of the streaming
// engine.
func TestStreamSinkResetReuse(t *testing.T) {
	var reusedOut collectBatch
	reused := NewStreamSink(&reusedOut, 1<<18) // large first hint, later hints shrink
	for run := 0; run < 3; run++ {
		rng := rand.New(rand.NewSource(int64(100 + run)))
		hint := 1 << (18 - 2*run)
		var freshOut collectBatch
		fresh := NewStreamSink(&freshOut, hint)
		reusedOut.packed = reusedOut.packed[:0]
		reused.Reset(&reusedOut, hint)
		for i := 0; i < 5000+run*777; i++ {
			addr := uint64(rng.Intn(hint))
			write := rng.Intn(4) == 0
			fresh.Access(addr, write)
			reused.Access(addr, write)
		}
		if fresh.Len() != reused.Len() {
			t.Fatalf("run %d: Len diverges: fresh %d, reused %d", run, fresh.Len(), reused.Len())
		}
		for _, block := range []int{16, 64} {
			if f, r := fresh.Footprint(block), reused.Footprint(block); f != r {
				t.Fatalf("run %d: Footprint(%d): fresh %d, reused %d", run, block, f, r)
			}
		}
		if !slices.Equal(freshOut.packed, reusedOut.packed) {
			t.Fatalf("run %d: reused sink delivered a different access stream", run)
		}
	}
}

// TestStreamSinkZeroAllocSteadyState pins the tentpole's allocation contract:
// once constructed with an adequate memory hint, streaming performs zero
// per-access allocations — the access path is an append into a recycled
// chunk plus batched accounting.
func TestStreamSinkZeroAllocSteadyState(t *testing.T) {
	var out collectBatch
	out.packed = make([]uint64, 0, 1<<16)
	ss := NewStreamSink(&out, 1<<20)
	allocs := testing.AllocsPerRun(10, func() {
		out.packed = out.packed[:0]
		ss.Reset(&out, 1<<20)
		for i := 0; i < 3*StreamChunk; i++ {
			ss.Access(uint64(i)*8, i%5 == 0)
		}
		ss.Flush()
	})
	if allocs != 0 {
		t.Fatalf("steady-state streaming allocated %.1f times per run, want 0", allocs)
	}
}

// TestStreamSinkOverlapMatchesSerial: an overlapped sink, reused across
// programs, must deliver the same chunks in the same order as a serial
// sink and report the same aggregates.
func TestStreamSinkOverlapMatchesSerial(t *testing.T) {
	overlappedOut := collectBatch{sizes: []int{}}
	overlapped := NewStreamSink(&overlappedOut, 1<<16)
	for run := 0; run < 3; run++ {
		rng := rand.New(rand.NewSource(int64(7 + run)))
		serialOut := collectBatch{sizes: []int{}}
		serial := NewStreamSink(&serialOut, 1<<16)
		overlappedOut.packed, overlappedOut.sizes = overlappedOut.packed[:0], overlappedOut.sizes[:0]
		overlapped.Reset(&overlappedOut, 1<<16)
		overlapped.Overlap()
		n := (5+run)*StreamChunk + 311*run // a partial tail on runs 1 and 2
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(1 << 16))
			write := rng.Intn(3) == 0
			serial.Access(addr, write)
			overlapped.Access(addr, write)
		}
		if serial.Len() != overlapped.Len() {
			t.Fatalf("run %d: Len: serial %d, overlapped %d", run, serial.Len(), overlapped.Len())
		}
		for _, block := range []int{16, 64} {
			if a, b := serial.Footprint(block), overlapped.Footprint(block); a != b {
				t.Fatalf("run %d: Footprint(%d): serial %d, overlapped %d", run, block, a, b)
			}
		}
		if !slices.Equal(serialOut.sizes, overlappedOut.sizes) {
			t.Fatalf("run %d: chunk sizes: serial %v, overlapped %v", run, serialOut.sizes, overlappedOut.sizes)
		}
		if !slices.Equal(serialOut.packed, overlappedOut.packed) {
			t.Fatalf("run %d: overlapped sink delivered a different access stream", run)
		}
	}
}

// settleGoroutines waits for the goroutine count to fall to want, failing
// the test if it does not within a few seconds.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamSinkOverlapJoinsOnError: a program that fails part-way through
// its stream leaves the consumer to the caller's Flush, which must deliver
// every access pushed before the fault and join the consumer.
func TestStreamSinkOverlapJoinsOnError(t *testing.T) {
	const mem = 1 << 16
	// Store to every word until the address runs past memory.
	p := mustBuild(isa.NewBuilder("runaway").
		Li(isa.R1, 0).
		Label("loop").
		Sw(isa.R0, isa.R1, 0).
		Addi(isa.R1, isa.R1, 4).
		Jmp("loop"))
	before := runtime.NumGoroutine()
	var out collectBatch
	ss := NewStreamSink(&out, mem)
	for run := 0; run < 10; run++ {
		out.packed = out.packed[:0]
		ss.Reset(&out, mem)
		ss.Overlap()
		if _, err := MustNew(mem, ss).Run(p, 0); err == nil {
			t.Fatal("runaway store did not fault")
		}
		if got := ss.Len(); got != mem/4 || len(out.packed) != mem/4 {
			t.Fatalf("run %d: streamed %d, delivered %d accesses, want %d", run, got, len(out.packed), mem/4)
		}
	}
	settleGoroutines(t, before)
}

// TestStreamSinkOverlapSteadyStateAllocs: once the ring exists, an
// overlapped program allocates only the consumer goroutine's start-up
// closure; the ring buffers are reused.
func TestStreamSinkOverlapSteadyStateAllocs(t *testing.T) {
	out := collectBatch{packed: make([]uint64, 0, 8*StreamChunk)}
	ss := NewStreamSink(&out, 1<<20)
	ss.Overlap() // make the ring
	ss.Flush()
	allocs := testing.AllocsPerRun(10, func() {
		out.packed = out.packed[:0]
		ss.Reset(&out, 1<<20)
		ss.Overlap()
		for i := 0; i < 8*StreamChunk; i++ {
			ss.Access(uint64(i)*8, i%5 == 0)
		}
		ss.Flush()
	})
	if allocs > 1 {
		t.Fatalf("steady-state overlapped streaming allocated %.1f times per run, want at most 1", allocs)
	}
}
