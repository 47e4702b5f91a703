package cache

// Test-only API: the paper-notation parser, construction shortcuts and
// inspection helpers, and the two-level Hierarchy that the one-pass
// simulators are checked against. No program reads them.

import (
	"fmt"
	"strconv"
	"strings"
)

// InDesignSpace reports whether the configuration is one of the 18 entries of
// the paper's Table 1.
func (c Config) InDesignSpace() bool {
	for _, d := range DesignSpace() {
		if d == c {
			return true
		}
	}
	return false
}

// ParseConfig parses the paper's configuration notation ("8KB_4W_64B",
// case-insensitive). It returns an error for malformed strings or
// configurations that are not internally consistent.
func ParseConfig(s string) (Config, error) {
	parts := strings.Split(strings.ToUpper(strings.TrimSpace(s)), "_")
	if len(parts) != 3 {
		return Config{}, fmt.Errorf("cache: malformed config %q: want SIZE_WAYS_LINE", s)
	}
	size, err := parseSuffixed(parts[0], "KB")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	ways, err := parseSuffixed(parts[1], "W")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	line, err := parseSuffixed(parts[2], "B")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	c := Config{SizeKB: size, Ways: ways, LineBytes: line}
	if !c.Valid() {
		return Config{}, fmt.Errorf("cache: config %q is not realizable", s)
	}
	return c, nil
}

func parseSuffixed(s, suffix string) (int, error) {
	if !strings.HasSuffix(s, suffix) {
		return 0, fmt.Errorf("field %q missing suffix %q", s, suffix)
	}
	v, err := strconv.Atoi(strings.TrimSuffix(s, suffix))
	if err != nil {
		return 0, fmt.Errorf("field %q: %v", s, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("field %q: must be positive", s)
	}
	return v, nil
}

// MustParseConfig is like ParseConfig but panics on error. It is intended for
// package-level constants and tests.
func MustParseConfig(s string) Config {
	c, err := ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// MustNewL1 is NewL1 for known-good configurations; it panics on error.
func MustNewL1(cfg Config) *L1 {
	c, err := NewL1(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Flush invalidates every line, counting dirty lines as writebacks.
func (c *L1) Flush() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			c.stats.Writebacks++
		}
		c.lines[i] = line{}
	}
	c.stats.Flushes++
}

// ResetStats zeroes the statistics without disturbing cache contents.
func (c *L1) ResetStats() { c.stats = Stats{} }

// Reconfigure switches the cache to a new configuration. The cache is flushed
// first: dirty lines become writebacks and all lines are invalidated. The
// statistics survive (the flush itself is recorded).
func (c *L1) Reconfigure(cfg Config) error {
	if !cfg.Valid() {
		return fmt.Errorf("cache: invalid L1 config %+v", cfg)
	}
	c.Flush()
	stats := c.stats
	c.configure(cfg)
	c.stats = stats
	return nil
}

// ValidLines counts the currently valid lines (tests/invariants).
func (c *L1) ValidLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// Hierarchy is a two-level private cache hierarchy: a reconfigurable L1
// backed by a fixed L2. L1 misses access the L2; L2 misses go off-chip.
// Writebacks from L1 are absorbed by the L2 (write-allocate).
type Hierarchy struct {
	L1 *L1
	L2 *L1 // the L2 reuses the set-associative engine
}

// NewHierarchy builds a hierarchy with the given L1 configuration and the
// default L2.
func NewHierarchy(l1 Config) (*Hierarchy, error) {
	return NewHierarchyL2(l1, DefaultL2)
}

// NewHierarchyL2 builds a hierarchy with explicit L1 and L2 configurations.
func NewHierarchyL2(l1 Config, l2 L2Config) (*Hierarchy, error) {
	c1, err := NewL1(l1)
	if err != nil {
		return nil, err
	}
	c2, err := NewL1(l2.asConfig())
	if err != nil {
		return nil, fmt.Errorf("cache: bad L2: %v", err)
	}
	return &Hierarchy{L1: c1, L2: c2}, nil
}

// Access performs one data access through the hierarchy.
func (h *Hierarchy) Access(addr uint64, write bool) HierarchyResult {
	r1 := h.L1.Access(addr, write)
	if r1.Hit {
		return HierarchyResult{L1Hit: true}
	}
	// Dirty eviction from L1 lands in the L2.
	if r1.WB {
		h.L2.Access(r1.WritebackAddr, true)
	}
	// The L1 fill reads the block from L2.
	r2 := h.L2.Access(addr, false)
	if r2.Hit {
		return HierarchyResult{L2Hit: true}
	}
	return HierarchyResult{OffChip: true}
}

// ReconfigureL1 flushes and reconfigures the L1. L1 dirty lines are written
// back into the L2 (approximated: the flush counts writebacks; their
// addresses are no longer known, so L2 contents are left unchanged, which is
// conservative for hit rates and exact for energy accounting, which only
// consumes counts).
func (h *Hierarchy) ReconfigureL1(cfg Config) error {
	return h.L1.Reconfigure(cfg)
}

// Reset flushes both levels and zeroes statistics; used between benchmark
// replays so every characterization run starts cold.
func (h *Hierarchy) Reset() {
	h.L1.Flush()
	h.L2.Flush()
	h.L1.ResetStats()
	h.L2.ResetStats()
}

// Accesses returns the total number of accesses observed.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.ReadHits += other.ReadHits
	s.ReadMisses += other.ReadMisses
	s.WriteHits += other.WriteHits
	s.WriteMiss += other.WriteMiss
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.Flushes += other.Flushes
}

// Contains reports whether addr currently hits without touching LRU state or
// statistics. Intended for tests and invariant checks.
func (c *L1) Contains(addr uint64) bool {
	blockAddr := addr >> c.shift
	set := blockAddr & c.setMask
	tag := blockAddr >> c.tagShift
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		l := c.lines[base+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Config returns the active configuration.
func (c *L1) Config() Config { return c.cfg }

// Accesses returns the number of packed accesses observed so far.
func (m *MultiSim) Accesses() uint64 { return m.total }
