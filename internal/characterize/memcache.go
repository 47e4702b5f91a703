package characterize

import (
	"container/list"
	"time"
)

// Outcome reports how a MemCache lookup was satisfied.
type Outcome int

// Lookup outcomes.
const (
	// OutcomeHit served a live entry straight from memory.
	OutcomeHit Outcome = iota
	// OutcomeCoalesced blocked on another caller's in-flight computation
	// for the same key and shared its result — singleflight.
	OutcomeCoalesced
	// OutcomeComputed ran the compute function: the key was absent (or
	// expired) and no computation was in flight.
	OutcomeComputed
)

// String names the outcome for logs and wire counters.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeComputed:
		return "computed"
	}
	return "unknown"
}

// MemCache is the warm in-memory characterization tier: a bounded LRU of
// characterization DBs keyed by content hash, with per-entry TTL and
// singleflight coalescing of concurrent computations for the same key.
//
// It sits in front of the persistent disk cache on the daemon's serving
// path: the disk cache (PR 2) dedupes characterization work *across
// processes and restarts*, the MemCache dedupes it *within* a running
// daemon — both the repeated case (bounded LRU of hot keys) and the
// concurrent case (N simultaneous requests for one key run one
// computation; the first caller computes, the rest block on its flight).
//
// A nil *MemCache is a valid disabled tier: every lookup runs compute
// directly with no caching and no coalescing.
type MemCache struct {
	maxEntries int
	ttl        time.Duration    // 0 = entries never expire
	now        func() time.Time // injectable clock for TTL tests

	mu       chan struct{} // 1-buffered channel as a mutex; held only for map/list ops, never across compute
	lru      *list.List    // front = most recently used; values are *memEntry
	entries  map[string]*list.Element
	inflight map[string]*flight

	stats MemStats
}

// memEntry is one cached DB with its storage time (for TTL).
type memEntry struct {
	key    string
	db     *DB
	stored time.Time
}

// flight is one in-progress computation. Waiters is the per-key wait
// counter: how many callers coalesced onto this computation (the first,
// computing caller excluded).
type flight struct {
	done    chan struct{} // closed when db/err are final
	db      *DB
	err     error
	waiters int
}

// MemStats is a snapshot of the tier's counters.
type MemStats struct {
	// Entries and Capacity describe the current LRU occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// TTLSeconds is the configured entry lifetime (0 = unbounded).
	TTLSeconds float64 `json:"ttl_seconds"`

	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"` // lookups that started a computation
	// Coalesced counts callers that blocked on another caller's flight
	// instead of computing — the in-flight dedup the singleflight layer
	// exists for.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound; Expirations
	// counts entries dropped because their TTL lapsed.
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
}

// NewMemCache builds a tier holding at most maxEntries DBs for at most ttl
// each (ttl 0 = no expiry). maxEntries < 1 returns nil — the disabled tier.
func NewMemCache(maxEntries int, ttl time.Duration) *MemCache {
	if maxEntries < 1 {
		return nil
	}
	c := &MemCache{
		maxEntries: maxEntries,
		ttl:        ttl,
		now:        time.Now,
		mu:         make(chan struct{}, 1),
		lru:        list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*flight),
	}
	return c
}

func (c *MemCache) lock()   { c.mu <- struct{}{} }
func (c *MemCache) unlock() { <-c.mu }

// GetOrCompute returns the DB stored under key, waiting on an in-flight
// computation for the same key when one exists, and otherwise running
// compute and caching its result. Compute errors are returned to the
// computing caller and every coalesced waiter, and are never cached.
func (c *MemCache) GetOrCompute(key string, compute func() (*DB, error)) (*DB, Outcome, error) {
	if c == nil {
		db, err := compute()
		return db, OutcomeComputed, err
	}
	c.lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*memEntry)
		if c.ttl > 0 && c.now().Sub(e.stored) >= c.ttl {
			// Expired: drop it and fall through to the miss path.
			c.lru.Remove(el)
			delete(c.entries, key)
			c.stats.Expirations++
		} else {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			db := e.db
			c.unlock()
			return db, OutcomeHit, nil
		}
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.stats.Coalesced++
		c.unlock()
		<-f.done
		return f.db, OutcomeCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	c.unlock()

	db, err := compute()

	c.lock()
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, db)
	}
	c.unlock()
	f.db, f.err = db, err
	close(f.done)
	return db, OutcomeComputed, err
}

// insertLocked stores key→db at the LRU front, evicting the coldest entry
// when the bound is exceeded. An entry for key may already exist (another
// flight can have landed between expiry and reinsertion only via this
// path, so overwrite in place).
func (c *MemCache) insertLocked(key string, db *DB) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*memEntry)
		e.db, e.stored = db, c.now()
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&memEntry{key: key, db: db, stored: c.now()})
	for c.lru.Len() > c.maxEntries {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*memEntry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the counters. Safe for concurrent use.
func (c *MemCache) Stats() MemStats {
	if c == nil {
		return MemStats{}
	}
	c.lock()
	defer c.unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Capacity = c.maxEntries
	s.TTLSeconds = c.ttl.Seconds()
	return s
}
