package characterize

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/energy"
)

// Source reports which tier satisfied a characterization request.
type Source int

// Tier sources, ordered warm to cold.
const (
	// SourceMemory served from the in-memory LRU.
	SourceMemory Source = iota
	// SourceCoalesced shared another in-flight computation's result.
	SourceCoalesced
	// SourceDisk loaded a valid entry from the persistent disk cache.
	SourceDisk
	// SourceComputed ran the full characterization pipeline.
	SourceComputed
)

// String names the source for wire counters and logs.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceCoalesced:
		return "coalesced"
	case SourceDisk:
		return "disk"
	case SourceComputed:
		return "computed"
	}
	return "unknown"
}

// Tier is the one characterization lookup path:
//
//	memory LRU (+ singleflight)  →  disk cache  →  stream engine
//
// Every lookup is keyed by the same content hash the disk cache uses
// (CacheKey), so the levels agree on identity by construction. The memory
// level dedupes repeated and concurrent work within the process: a bounded
// LRU of DBs with a per-entry TTL, and singleflight coalescing (N
// simultaneous requests for one key run one computation; the first caller
// computes, the rest block on its flight). The disk level dedupes across
// processes and restarts; the compute level is CharacterizeWithOptions.
//
// The zero value is unusable; build with NewTier. Either cache level can
// be off: a Tier without memory entries reads disk → compute, one with dir
// "" reads memory → compute, and one with neither always computes.
type Tier struct {
	dir  string // "" disables the disk level
	em   *energy.Model
	opts Options

	// The memory level; maxEntries < 1 disables it.
	maxEntries int
	ttl        time.Duration    // 0 = entries never expire
	now        func() time.Time // injectable clock for TTL tests

	mu       sync.Mutex // held only for map/list ops, never across compute
	lru      *list.List // front = most recently used; values are *memEntry
	entries  map[string]*list.Element
	inflight map[string]*flight
	mem      MemStats

	// computed counts full characterization runs the tier performed —
	// the denominator of coalescing effectiveness (requests vs. unique
	// characterizations) that hetschedbench and the reduction test read.
	computed atomic.Uint64
	disk     atomic.Uint64
	requests atomic.Uint64
}

// memEntry is one cached DB with its storage time (for TTL).
type memEntry struct {
	key    string
	db     *DB
	stored time.Time
}

// flight is one in-progress computation.
type flight struct {
	done chan struct{} // closed when db/err are final
	db   *DB
	err  error
}

// MemStats is a snapshot of the memory level's counters.
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

// NewTier builds a characterization tier. memEntries and ttl size the
// memory level (memEntries < 1 disables it; ttl 0 never expires); dir is
// the persistent disk cache directory ("" disables it); em and opts flow
// to CacheKey and the compute path.
func NewTier(memEntries int, ttl time.Duration, dir string, em *energy.Model, opts Options) *Tier {
	t := &Tier{dir: dir, em: em, opts: opts}
	if memEntries >= 1 {
		t.maxEntries = memEntries
		t.ttl = ttl
		t.now = time.Now
		t.lru = list.New()
		t.entries = make(map[string]*list.Element)
		t.inflight = make(map[string]*flight)
	}
	return t
}

// Characterize returns the DB for variants, consulting memory, then disk,
// then computing — and reports which level satisfied the call. A miss that
// computes stores the result on disk best-effort: the disk level is an
// optimization, not a dependency.
func (t *Tier) Characterize(variants []Variant) (*DB, Source, error) {
	t.requests.Add(1)
	// A tier with neither cache level has nothing to look a key up in, so
	// it skips deriving one; the hashing would also leave encoding/json's
	// type cache (~19 KB) live for the process.
	var key string
	if t.maxEntries >= 1 || t.dir != "" {
		var err error
		if key, err = CacheKey(variants, t.em, t.opts); err != nil {
			return nil, SourceComputed, err
		}
	}
	db, src, err := t.getOrCompute(key, func() (*DB, Source, error) {
		if t.dir != "" {
			if db, ok := LoadCached(t.dir, key); ok && validCached(db, variants) {
				return db, SourceDisk, nil
			}
		}
		db, err := CharacterizeWithOptions(variants, t.em, t.opts)
		if err != nil {
			return nil, SourceComputed, err
		}
		if t.dir != "" {
			_ = SaveCached(t.dir, key, db)
		}
		return db, SourceComputed, nil
	})
	if err != nil {
		return nil, src, err
	}
	switch src {
	case SourceDisk:
		t.disk.Add(1)
	case SourceComputed:
		t.computed.Add(1)
	}
	return db, src, nil
}

// getOrCompute is the memory level: it returns the DB stored under key
// (SourceMemory), waits on an in-flight computation for the same key
// (SourceCoalesced), or runs compute, caches its result and reports
// compute's source. Compute errors reach the computing caller and every
// coalesced waiter, and are never cached. With the memory level off it
// runs compute directly.
func (t *Tier) getOrCompute(key string, compute func() (*DB, Source, error)) (*DB, Source, error) {
	if t.maxEntries < 1 {
		return compute()
	}
	t.mu.Lock()
	if el, ok := t.entries[key]; ok {
		e := el.Value.(*memEntry)
		if t.ttl > 0 && t.now().Sub(e.stored) >= t.ttl {
			// Expired: drop it and fall through to the miss path.
			t.lru.Remove(el)
			delete(t.entries, key)
			t.mem.Expirations++
		} else {
			t.lru.MoveToFront(el)
			t.mem.Hits++
			db := e.db
			t.mu.Unlock()
			return db, SourceMemory, nil
		}
	}
	if f, ok := t.inflight[key]; ok {
		t.mem.Coalesced++
		t.mu.Unlock()
		<-f.done
		return f.db, SourceCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	t.inflight[key] = f
	t.mem.Misses++
	t.mu.Unlock()

	db, src, err := compute()

	t.mu.Lock()
	delete(t.inflight, key)
	if err == nil {
		t.insertLocked(key, db)
	}
	t.mu.Unlock()
	f.db, f.err = db, err
	close(f.done)
	return db, src, err
}

// insertLocked stores key→db at the LRU front, evicting the coldest entry
// when the bound is exceeded. The key is absent here: a hit returns before
// a flight starts, and one flight per key runs at a time.
func (t *Tier) insertLocked(key string, db *DB) {
	t.entries[key] = t.lru.PushFront(&memEntry{key: key, db: db, stored: t.now()})
	for t.lru.Len() > t.maxEntries {
		back := t.lru.Back()
		t.lru.Remove(back)
		delete(t.entries, back.Value.(*memEntry).key)
		t.mem.Evictions++
	}
}

// TierStats is the /metrics and /healthz snapshot of the full path.
type TierStats struct {
	// Requests counts Characterize calls; Computed counts the full
	// pipeline runs among them; DiskHits the disk-cache loads. Memory-
	// level hits and coalesced waits live in Mem. Requests − Computed −
	// DiskHits − Mem.Hits − Mem.Coalesced == 0 for error-free traffic.
	Requests uint64   `json:"requests"`
	Computed uint64   `json:"computed"`
	DiskHits uint64   `json:"disk_hits"`
	Mem      MemStats `json:"memory"`
}

// Stats snapshots the tier's counters. Safe for concurrent use.
func (t *Tier) Stats() TierStats {
	s := TierStats{
		Requests: t.requests.Load(),
		Computed: t.computed.Load(),
		DiskHits: t.disk.Load(),
	}
	if t.maxEntries >= 1 {
		t.mu.Lock()
		s.Mem = t.mem
		s.Mem.Entries = t.lru.Len()
		t.mu.Unlock()
		s.Mem.Capacity = t.maxEntries
		s.Mem.TTLSeconds = t.ttl.Seconds()
	}
	return s
}

// process is the memory-only tier behind Default and Augmented: each
// pool is characterized once per process and every caller shares its DB.
// Two entries hold both pools, and nothing else is looked up in it, so
// neither is ever evicted.
var process = NewTier(2, 0, "", energy.NewDefault(), Options{})

// Default returns the canonical-variant DB under the default energy model,
// computed once per process. Experiments and tests share it.
func Default() (*DB, error) {
	db, _, err := process.Characterize(CanonicalVariants())
	return db, err
}

// Augmented returns the augmented-variant DB (training pool), computed once
// per process.
func Augmented() (*DB, error) {
	db, _, err := process.Characterize(AugmentedVariants())
	return db, err
}
