package cache

// L2Config describes the fixed private L2 cache each core carries (Figure 1).
// Unlike the L1, the L2 is not runtime-configurable.
type L2Config struct {
	SizeKB    int
	Ways      int
	LineBytes int
}

// DefaultL2 is the non-configurable private L2 used throughout the paper's
// architecture: 32 KB, 8-way, 64 B lines.
var DefaultL2 = L2Config{SizeKB: 32, Ways: 8, LineBytes: 64}

// asConfig converts to the generic Config so the same engine is reused.
func (c L2Config) asConfig() Config {
	return Config{SizeKB: c.SizeKB, Ways: c.Ways, LineBytes: c.LineBytes}
}

// HierarchyResult summarizes where a single access was satisfied.
type HierarchyResult struct {
	L1Hit   bool
	L2Hit   bool // meaningful only when !L1Hit
	OffChip bool // the access reached main memory
}
