package vm

// FlatTrace is the packed memory-trace representation the one-pass cache
// simulator consumes: each access is a single uint64 with the address in the
// upper 63 bits and the write flag in bit 0. Compared to Trace it halves the
// record-time memory traffic (8 bytes per access instead of a 16-byte
// struct) and lets replay hand the simulator whole batches with no
// per-access interface dispatch.
type FlatTrace struct {
	// Packed holds addr<<1 | writeBit per access, in program order.
	Packed []uint64

	// Record-time memos, valid while memoLen == len(Packed): the write
	// count (Writes was an O(n) recount per call) and the highest address
	// (saves Footprint its max-scan pass). Code that mutates Packed
	// directly implicitly invalidates them by changing the length; the
	// accessors then fall back to a single recount.
	memoLen    int
	memoWrites int
	memoMax    uint64
}

// NewFlatTrace returns a trace with capacity preallocated for n accesses, so
// recording a program whose access count is known (Counters.MemOps of a
// previous deterministic run) performs no append growth.
func NewFlatTrace(n int) *FlatTrace {
	if n < 0 {
		n = 0
	}
	return &FlatTrace{Packed: make([]uint64, 0, n)}
}

// Pack encodes one access in the flat representation.
func Pack(addr uint64, write bool) uint64 {
	p := addr << 1
	if write {
		p |= 1
	}
	return p
}

// Access implements MemSink.
func (t *FlatTrace) Access(addr uint64, write bool) {
	if t.memoLen == len(t.Packed) {
		t.memoLen++
		if write {
			t.memoWrites++
		}
		if addr > t.memoMax {
			t.memoMax = addr
		}
	}
	t.Packed = append(t.Packed, Pack(addr, write))
}

// Len returns the number of recorded accesses.
func (t *FlatTrace) Len() int { return len(t.Packed) }

// Reads counts the read accesses.
func (t *FlatTrace) Reads() int { return t.Len() - t.Writes() }

// Writes returns the write-access count. Traces built through Access or
// Flatten answer from the record-time memo; a trace whose Packed slice was
// mutated directly pays one recount, after which the memo is valid again.
func (t *FlatTrace) Writes() int {
	t.revalidate()
	return t.memoWrites
}

// revalidate recomputes the memos if Packed changed length behind them.
func (t *FlatTrace) revalidate() {
	if t.memoLen == len(t.Packed) {
		return
	}
	writes := 0
	var maxAddr uint64
	for _, p := range t.Packed {
		writes += int(p & 1)
		if a := p >> 1; a > maxAddr {
			maxAddr = a
		}
	}
	t.memoLen, t.memoWrites, t.memoMax = len(t.Packed), writes, maxAddr
}

// Footprint returns the number of distinct blocks of the given size touched
// by the trace — the same count as Trace.Footprint, computed with a dense
// bitset when the address range allows (VM address spaces are small, so the
// map-based set was the characterization pipeline's hidden hot spot).
func (t *FlatTrace) Footprint(blockBytes int) int {
	if blockBytes <= 0 {
		return 0
	}
	bb := uint64(blockBytes)
	if bb&(bb-1) == 0 {
		// Power-of-two block (every real call): shift instead of divide,
		// and bound the bitset by the memoized maximum address instead of
		// a dedicated max-scan pass over the trace.
		shift := uint(0)
		for 1<<shift != bb {
			shift++
		}
		t.revalidate()
		maxBlock := t.memoMax >> shift
		shift++ // fold in the write-bit shift
		if maxBlock < 1<<24 {
			words := make([]uint64, maxBlock/64+1)
			count := 0
			for _, p := range t.Packed {
				b := p >> shift
				if w := &words[b/64]; *w&(1<<(b%64)) == 0 {
					*w |= 1 << (b % 64)
					count++
				}
			}
			return count
		}
	}
	seen := make(map[uint64]struct{})
	for _, p := range t.Packed {
		seen[(p>>1)/bb] = struct{}{}
	}
	return len(seen)
}

// BatchSink consumes packed accesses in bulk — the zero-dispatch,
// zero-allocation replay path (one virtual call per batch instead of one per
// access).
type BatchSink interface {
	AccessBatch(packed []uint64)
}

// ReplayBatch hands the whole packed trace to a batch sink in one call.
func (t *FlatTrace) ReplayBatch(s BatchSink) { s.AccessBatch(t.Packed) }

// Flatten converts a structured trace to the packed representation.
func (t *Trace) Flatten() *FlatTrace {
	f := NewFlatTrace(t.Len())
	for _, a := range t.Accesses {
		f.Access(a.Addr, a.Write)
	}
	return f
}
