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
	Flushes    uint64 // whole-cache flushes (reconfigurations)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp of the last touch. The smallest
	// value in a set is the victim.
	lru uint64
}

// L1 is a runtime-reconfigurable set-associative write-allocate L1 data
// cache: write-back with true-LRU replacement, the paper's configuration.
// Reconfiguring the cache flushes it (dirty lines are counted as
// writebacks), matching the paper's cache tuner, which must flush on any
// parameter change.
type L1 struct {
	cfg      Config
	sets     int
	ways     int
	shift    uint // log2(lineBytes)
	tagShift uint // log2(sets): block-address bits consumed by the index
	setMask  uint64
	lines    []line // sets*ways, way-major within a set
	clock    uint64
	stats    Stats
}

// NewL1 builds an L1 cache in the given configuration.
func NewL1(cfg Config) (*L1, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("cache: invalid L1 config %+v", cfg)
	}
	c := &L1{}
	c.configure(cfg)
	return c, nil
}

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

// Stats returns the statistics accumulated since the last ResetStats.
func (c *L1) Stats() Stats { return c.stats }

// AccessResult describes the outcome of a single cache access.
type AccessResult struct {
	Hit bool
	// Evicted reports that a valid line was displaced to make room.
	Evicted bool
	// WritebackAddr, when WB is true, is the block-aligned address of the
	// dirty line written back to the next level.
	WB            bool
	WritebackAddr uint64
}

// Access performs one data access at addr. write=true marks the line dirty
// on hit and allocates-and-dirties on miss (write-allocate).
func (c *L1) Access(addr uint64, write bool) AccessResult {
	c.clock++
	blockAddr := addr >> c.shift
	set := blockAddr & c.setMask
	tag := blockAddr >> c.tagShift

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
		l.lru = c.clock
		if write {
			c.stats.WriteHits++
			l.dirty = true
		} else {
			c.stats.ReadHits++
		}
		c.stats.Hits++
		return AccessResult{Hit: true}
	}

	// Miss: one victim pass — an invalid way first, else the least
	// recently used.
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
		victim = oldestIdx
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
	v.dirty = write
	v.tag = tag
	v.lru = c.clock
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMisses++
	}
	c.stats.Misses++
	return res
}

func (c *L1) reconstructAddr(tag, set uint64) uint64 {
	return ((tag << c.tagShift) | set) << c.shift
}
