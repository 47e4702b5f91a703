package cache

import "fmt"

// SharedHierarchy models N private L1s in front of one shared L2 — the
// "shared caches" half of the paper's future-work item. Co-running cores
// compete for L2 capacity, so a core's effective miss cost depends on its
// neighbours; the study tests quantify that interference. (The scheduler
// experiments keep private L2s: per-job characterization cannot see
// cross-job interference, which is exactly why the paper defers shared
// caches to future work.)
type SharedHierarchy struct {
	L1s []*L1
	L2  *L1
}

// NewSharedHierarchy builds n private L1s (all in cfg) over one shared L2.
func NewSharedHierarchy(n int, l1 Config, l2 L2Config) (*SharedHierarchy, error) {
	if n < 1 {
		return nil, fmt.Errorf("cache: shared hierarchy needs at least one core, got %d", n)
	}
	shared, err := NewL1(l2.asConfig())
	if err != nil {
		return nil, fmt.Errorf("cache: bad shared L2: %v", err)
	}
	h := &SharedHierarchy{L2: shared}
	for i := 0; i < n; i++ {
		l1, err := NewL1(l1)
		if err != nil {
			return nil, err
		}
		h.L1s = append(h.L1s, l1)
	}
	return h, nil
}

// Access performs one access from the given core.
func (h *SharedHierarchy) Access(core int, addr uint64, write bool) (HierarchyResult, error) {
	if core < 0 || core >= len(h.L1s) {
		return HierarchyResult{}, fmt.Errorf("cache: core %d out of range", core)
	}
	r1 := h.L1s[core].Access(addr, write)
	if r1.Hit {
		return HierarchyResult{L1Hit: true}, nil
	}
	if r1.WB {
		h.L2.Access(r1.WritebackAddr, true)
	}
	r2 := h.L2.Access(addr, false)
	if r2.Hit {
		return HierarchyResult{L2Hit: true}, nil
	}
	return HierarchyResult{OffChip: true}, nil
}

// TraceAccess is one access of a per-core replay stream.
type TraceAccess struct {
	Addr  uint64
	Write bool
}

// InterleaveTraces replays per-core access streams round-robin (one access
// per core per turn, shorter traces simply finish early) and returns each
// core's L2-hit and off-chip counts. This is the standard first-order model
// of concurrent execution over a shared cache.
func (h *SharedHierarchy) InterleaveTraces(traces [][]TraceAccess) (l2Hits, offChip []uint64, err error) {
	if len(traces) != len(h.L1s) {
		return nil, nil, fmt.Errorf("cache: %d traces for %d cores", len(traces), len(h.L1s))
	}
	l2Hits = make([]uint64, len(traces))
	offChip = make([]uint64, len(traces))
	idx := make([]int, len(traces))
	for {
		progressed := false
		for c := range traces {
			if idx[c] >= len(traces[c]) {
				continue
			}
			a := traces[c][idx[c]]
			idx[c]++
			progressed = true
			r, err := h.Access(c, a.Addr, a.Write)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case r.L2Hit:
				l2Hits[c]++
			case r.OffChip:
				offChip[c]++
			}
		}
		if !progressed {
			return l2Hits, offChip, nil
		}
	}
}
