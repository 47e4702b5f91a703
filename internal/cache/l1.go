package cache

import "fmt"

// Stats accumulates access statistics for a single cache.
type Stats struct {
	Hits       uint64 // accesses satisfied by the cache
	Misses     uint64 // accesses that required a fill from the next level
	ReadHits   uint64
	ReadMisses uint64
	WriteHits  uint64
	WriteMiss  uint64
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty lines written back on eviction or flush
	// Writethroughs counts stores propagated immediately to the next level
	// (write-through policy only).
	Writethroughs uint64
	// Prefetches counts next-line fills issued by the prefetcher.
	Prefetches uint64
	Flushes    uint64 // whole-cache flushes (reconfigurations)
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
	s.Writethroughs += other.Writethroughs
	s.Prefetches += other.Prefetches
	s.Flushes += other.Flushes
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp: last-touch time under LRU,
	// insertion time under FIFO. The smallest value in a set is the
	// victim.
	lru uint64
}

// Replacement selects the victim-choice policy.
type Replacement int

// Replacement policies.
const (
	// LRU is true least-recently-used (the paper's default).
	LRU Replacement = iota
	// FIFO evicts the oldest-inserted line regardless of reuse.
	FIFO
	// Random picks a pseudo-random way (seeded, deterministic).
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("replacement(%d)", int(r))
}

// WritePolicy selects store handling.
type WritePolicy int

// Write policies.
const (
	// WriteBack marks lines dirty and writes them out on eviction (the
	// paper's default).
	WriteBack WritePolicy = iota
	// WriteThrough propagates every store to the next level immediately;
	// lines are never dirty. Stores still allocate (write-allocate).
	WriteThrough
)

// String names the policy.
func (w WritePolicy) String() string {
	switch w {
	case WriteBack:
		return "writeback"
	case WriteThrough:
		return "writethrough"
	}
	return fmt.Sprintf("writepolicy(%d)", int(w))
}

// L1Options selects the non-geometry policies of the cache.
type L1Options struct {
	Replacement Replacement
	Write       WritePolicy
	// NextLinePrefetch fetches block B+1 into the cache on a demand miss
	// to block B (sequential prefetching): a win for streaming kernels, a
	// pollution source for pointer chases. Prefetch fills are counted in
	// Stats.Prefetches and do not count as accesses.
	NextLinePrefetch bool
	// Seed drives the Random replacement policy (ignored otherwise).
	Seed int64
}

// L1 is a runtime-reconfigurable set-associative write-allocate L1 data
// cache. The default build is write-back with true-LRU replacement, the
// paper's configuration; FIFO/random replacement and write-through are
// available as study knobs. Reconfiguring the cache flushes it (dirty lines
// are counted as writebacks), matching the paper's cache tuner, which must
// flush on any parameter change.
type L1 struct {
	cfg      Config
	opts     L1Options
	sets     int
	ways     int
	shift    uint // log2(lineBytes)
	tagShift uint // log2(sets): block-address bits consumed by the index
	setMask  uint64
	lines    []line // sets*ways, way-major within a set
	clock    uint64
	rngs     uint64 // xorshift state for Random replacement
	stats    Stats
}

// NewL1 builds an L1 cache in the given configuration with default
// policies (write-back, LRU).
func NewL1(cfg Config) (*L1, error) {
	return NewL1Opts(cfg, L1Options{})
}

// NewL1Opts builds an L1 with explicit policies.
func NewL1Opts(cfg Config, opts L1Options) (*L1, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("cache: invalid L1 config %+v", cfg)
	}
	switch opts.Replacement {
	case LRU, FIFO, Random:
	default:
		return nil, fmt.Errorf("cache: unknown replacement policy %d", opts.Replacement)
	}
	switch opts.Write {
	case WriteBack, WriteThrough:
	default:
		return nil, fmt.Errorf("cache: unknown write policy %d", opts.Write)
	}
	c := &L1{opts: opts}
	c.rngs = uint64(opts.Seed)*2654435761 + 0x9e3779b97f4a7c15
	c.configure(cfg)
	return c, nil
}

// Options returns the cache's policy options.
func (c *L1) Options() L1Options { return c.opts }

func (c *L1) configure(cfg Config) {
	c.cfg = cfg
	c.sets = cfg.Sets()
	c.ways = cfg.Ways
	c.shift = uint(log2(cfg.LineBytes))
	c.tagShift = uint(log2(c.sets))
	c.setMask = uint64(c.sets - 1)
	c.lines = make([]line, c.sets*c.ways)
	c.clock = 0
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the active configuration.
func (c *L1) Config() Config { return c.cfg }

// Stats returns the statistics accumulated since the last ResetStats.
func (c *L1) Stats() Stats { return c.stats }

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

// AccessResult describes the outcome of a single cache access.
type AccessResult struct {
	Hit bool
	// Evicted reports that a valid line was displaced to make room.
	Evicted bool
	// WritebackAddr, when WB is true, is the block-aligned address of the
	// dirty line written back to the next level.
	WB            bool
	WritebackAddr uint64
	// WroteThrough reports that the store was propagated immediately to
	// the next level (write-through policy).
	WroteThrough bool
}

// xorshift advances the deterministic random-replacement state.
func (c *L1) xorshift() uint64 {
	x := c.rngs
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngs = x
	return x
}

// Access performs one data access at addr. Under write-back, write=true
// marks the line dirty on hit and allocates-and-dirties on miss
// (write-allocate); under write-through, stores propagate immediately and
// lines stay clean.
func (c *L1) Access(addr uint64, write bool) AccessResult {
	c.clock++
	blockAddr := addr >> c.shift
	set := blockAddr & c.setMask
	tag := blockAddr >> c.tagShift
	through := write && c.opts.Write == WriteThrough

	// Hit scan first, with nothing but the tag compare in the loop — hits
	// dominate trace replay, so the hit path must stay as tight as the
	// hardware's parallel tag match. The slice is hoisted once so the
	// compiler drops the per-way bounds checks.
	ways := c.lines[int(set)*c.ways : int(set)*c.ways+c.ways]
	for w := range ways {
		l := &ways[w]
		if !l.valid || l.tag != tag {
			continue
		}
		if c.opts.Replacement == LRU {
			l.lru = c.clock
		}
		res := AccessResult{Hit: true}
		if write {
			c.stats.WriteHits++
			if through {
				c.stats.Writethroughs++
				res.WroteThrough = true
			} else {
				l.dirty = true
			}
		} else {
			c.stats.ReadHits++
		}
		c.stats.Hits++
		return res
	}

	// Miss: one victim pass — an invalid way first, else the per-policy
	// choice (smallest timestamp for LRU/FIFO).
	victim := -1
	oldestIdx, oldest := 0, ^uint64(0)
	for w := range ways {
		l := &ways[w]
		if !l.valid {
			victim = w
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			oldestIdx = w
		}
	}
	if victim < 0 {
		switch c.opts.Replacement {
		case Random:
			victim = int(c.xorshift() % uint64(c.ways))
		default:
			victim = oldestIdx
		}
	}
	res := AccessResult{}
	v := &ways[victim]
	if v.valid {
		c.stats.Evictions++
		res.Evicted = true
		if v.dirty {
			c.stats.Writebacks++
			res.WB = true
			res.WritebackAddr = c.reconstructAddr(v.tag, set)
		}
	}
	v.valid = true
	v.dirty = write && !through
	v.tag = tag
	v.lru = c.clock
	if write {
		c.stats.WriteMiss++
		if through {
			c.stats.Writethroughs++
			res.WroteThrough = true
		}
	} else {
		c.stats.ReadMisses++
	}
	c.stats.Misses++
	if c.opts.NextLinePrefetch {
		c.prefetch(blockAddr + 1)
	}
	return res
}

// prefetch installs a block speculatively: no access/hit/miss accounting,
// only Prefetches (plus any eviction/writeback it causes). Already-resident
// blocks are left untouched.
func (c *L1) prefetch(blockAddr uint64) {
	set := blockAddr & c.setMask
	tag := blockAddr >> c.tagShift
	ways := c.lines[int(set)*c.ways : int(set)*c.ways+c.ways]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return // already resident
		}
	}
	victim := -1
	oldestIdx, oldest := 0, ^uint64(0)
	for w := range ways {
		l := &ways[w]
		if !l.valid {
			victim = w
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			oldestIdx = w
		}
	}
	if victim < 0 {
		switch c.opts.Replacement {
		case Random:
			victim = int(c.xorshift() % uint64(c.ways))
		default:
			victim = oldestIdx
		}
	}
	v := &ways[victim]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	// Insert at LRU position (lru = 0) so useless prefetches are the first
	// victims — the usual low-priority-insertion policy.
	v.valid = true
	v.dirty = false
	v.tag = tag
	v.lru = 0
	c.stats.Prefetches++
}

func (c *L1) reconstructAddr(tag, set uint64) uint64 {
	return ((tag << c.tagShift) | set) << c.shift
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
