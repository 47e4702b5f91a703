package characterize

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/eembc"
	"hetsched/internal/energy"
)

// The TestMemCache* tests drive the Tier's memory level directly through
// getOrCompute, with placeholder DBs that never touch the compute pipeline.

// fakeDB builds a distinguishable placeholder DB.
func fakeDB(tag string) *DB {
	return &DB{Records: []Record{{Kernel: tag}}}
}

// memTier is a Tier with only its memory level configured.
func memTier(entries int, ttl time.Duration) *Tier {
	return NewTier(entries, ttl, "", energy.NewDefault(), Options{})
}

// fake adapts a placeholder compute to getOrCompute's signature, reporting
// SourceComputed like the compute level does.
func fake(f func() (*DB, error)) func() (*DB, Source, error) {
	return func() (*DB, Source, error) {
		db, err := f()
		return db, SourceComputed, err
	}
}

func TestMemCacheHitAndMiss(t *testing.T) {
	c := memTier(4, 0)
	calls := 0
	compute := func() (*DB, error) { calls++; return fakeDB("a"), nil }

	db, out, err := c.getOrCompute("k", fake(compute))
	if err != nil || out != SourceComputed || db.Records[0].Kernel != "a" {
		t.Fatalf("first lookup: db=%v outcome=%v err=%v", db, out, err)
	}
	db, out, err = c.getOrCompute("k", fake(compute))
	if err != nil || out != SourceMemory || db.Records[0].Kernel != "a" {
		t.Fatalf("second lookup: db=%v outcome=%v err=%v", db, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats().Mem
	if s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemCacheErrorsNotCached(t *testing.T) {
	c := memTier(4, 0)
	boom := errors.New("boom")
	fails := func() (*DB, error) { return nil, boom }

	if _, out, err := c.getOrCompute("k", fake(fails)); !errors.Is(err, boom) || out != SourceComputed {
		t.Fatalf("failing compute: outcome=%v err=%v", out, err)
	}
	if s := c.Stats().Mem; s.Entries != 0 {
		t.Fatalf("error was cached: %+v", s)
	}
	// The key must be retryable: a later successful compute lands normally.
	db, out, err := c.getOrCompute("k", fake(func() (*DB, error) { return fakeDB("ok"), nil }))
	if err != nil || out != SourceComputed || db.Records[0].Kernel != "ok" {
		t.Fatalf("retry after error: db=%v outcome=%v err=%v", db, out, err)
	}
}

// TestMemCacheCoalescingIdenticalKeys proves the singleflight contract
// under the race detector: 16 concurrent callers for one key run exactly
// one computation, the other 15 block and share its result, and the
// coalesced counter observes them while they wait.
func TestMemCacheCoalescingIdenticalKeys(t *testing.T) {
	c := memTier(4, 0)
	const callers = 16

	var computes atomic.Int64
	computing := make(chan struct{}) // closed once compute has started
	release := make(chan struct{})   // compute blocks until the test releases it
	compute := func() (*DB, error) {
		computes.Add(1)
		close(computing)
		<-release
		return fakeDB("shared"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]Source, callers)
	dbs := make([]*DB, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, out, err := c.getOrCompute("k", fake(compute))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			dbs[i], outcomes[i] = db, out
		}(i)
	}

	<-computing
	// Wait until every other caller has joined the flight, observed via
	// the coalesced counter, then let the computation finish.
	for c.Stats().Mem.Coalesced < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	var computed, coalesced int
	for i := range outcomes {
		switch outcomes[i] {
		case SourceComputed:
			computed++
		case SourceCoalesced:
			coalesced++
		}
		if dbs[i] != dbs[0] {
			t.Fatalf("caller %d got a different *DB", i)
		}
	}
	if computed != 1 || coalesced != callers-1 {
		t.Fatalf("computed=%d coalesced=%d, want 1/%d", computed, coalesced, callers-1)
	}
	if s := c.Stats().Mem; s.Coalesced != callers-1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if n := len(c.inflight); n != 0 {
		t.Fatalf("%d flights leaked", n)
	}
}

// TestMemCacheDistinctKeysConcurrent proves distinct keys never coalesce:
// each key computes exactly once, concurrently, under -race.
func TestMemCacheDistinctKeysConcurrent(t *testing.T) {
	c := memTier(64, 0)
	const keys, rounds = 8, 4

	counts := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				key := fmt.Sprintf("key-%d", k)
				db, _, err := c.getOrCompute(key, fake(func() (*DB, error) {
					counts[k].Add(1)
					return fakeDB(key), nil
				}))
				if err != nil {
					t.Errorf("%s: %v", key, err)
				} else if db.Records[0].Kernel != key {
					t.Errorf("%s got %s's DB", key, db.Records[0].Kernel)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := range counts {
		if n := counts[k].Load(); n != 1 {
			t.Errorf("key-%d computed %d times, want 1", k, n)
		}
	}
	if s := c.Stats().Mem; s.Misses != keys || s.Hits+s.Coalesced != keys*(rounds-1) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMemCacheTTLExpiry drives the injectable clock across the TTL
// boundary: a fresh entry hits, an expired one recomputes and counts an
// expiration, and the recomputed entry's lifetime restarts.
func TestMemCacheTTLExpiry(t *testing.T) {
	c := memTier(4, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	calls := 0
	compute := func() (*DB, error) { calls++; return fakeDB("t"), nil }

	if _, out, _ := c.getOrCompute("k", fake(compute)); out != SourceComputed {
		t.Fatalf("cold lookup outcome %v", out)
	}
	now = now.Add(59 * time.Second)
	if _, out, _ := c.getOrCompute("k", fake(compute)); out != SourceMemory {
		t.Fatalf("within-TTL lookup outcome %v", out)
	}
	now = now.Add(2 * time.Second) // 61s after store: expired
	if _, out, _ := c.getOrCompute("k", fake(compute)); out != SourceComputed {
		t.Fatalf("post-TTL lookup outcome %v", out)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	if s := c.Stats().Mem; s.Expirations != 1 || s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// The refreshed entry's clock restarted at the recompute.
	now = now.Add(59 * time.Second)
	if _, out, _ := c.getOrCompute("k", fake(compute)); out != SourceMemory {
		t.Fatalf("refreshed-entry lookup outcome %v", out)
	}
}

func TestMemCacheLRUEviction(t *testing.T) {
	c := memTier(2, 0)
	one := func(tag string) func() (*DB, error) {
		return func() (*DB, error) { return fakeDB(tag), nil }
	}
	c.getOrCompute("a", fake(one("a")))
	c.getOrCompute("b", fake(one("b")))
	c.getOrCompute("a", fake(one("a"))) // touch a: b is now coldest
	c.getOrCompute("c", fake(one("c"))) // evicts b

	if _, out, _ := c.getOrCompute("a", fake(one("a"))); out != SourceMemory {
		t.Fatalf("a should have survived, outcome %v", out)
	}
	if _, out, _ := c.getOrCompute("b", fake(one("b"))); out != SourceComputed {
		t.Fatalf("b should have been evicted, outcome %v", out)
	}
	if s := c.Stats().Mem; s.Evictions < 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMemCacheEvictWhileWaiting covers the path where a key's entry is
// evicted by unrelated inserts while callers are still blocked on its
// original flight: the waiters must still receive the flight's result,
// and the landing insert must re-enter the LRU cleanly. maxEntries=1
// forces every insert to evict.
func TestMemCacheEvictWhileWaiting(t *testing.T) {
	c := memTier(1, 0)

	computing := make(chan struct{})
	release := make(chan struct{})
	slow := func() (*DB, error) {
		close(computing)
		<-release
		return fakeDB("slow"), nil
	}

	var wg sync.WaitGroup
	results := make([]*DB, 2)
	outcomes := make([]Source, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, out, err := c.getOrCompute("slow", fake(slow))
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], outcomes[i] = db, out
		}(i)
	}
	<-computing
	for c.Stats().Mem.Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	// While "slow" is in flight, churn the 1-entry LRU with other keys so
	// whatever lands keeps getting evicted.
	for i := 0; i < 4; i++ {
		tag := fmt.Sprintf("churn-%d", i)
		if _, out, err := c.getOrCompute(tag, fake(func() (*DB, error) { return fakeDB(tag), nil })); err != nil || out != SourceComputed {
			t.Fatalf("churn %d: outcome=%v err=%v", i, out, err)
		}
	}

	close(release)
	wg.Wait()
	if results[0] != results[1] || results[0].Records[0].Kernel != "slow" {
		t.Fatalf("waiters disagree: %v vs %v", results[0], results[1])
	}
	if (outcomes[0] == SourceCoalesced) == (outcomes[1] == SourceCoalesced) {
		t.Fatalf("want exactly one coalesced caller, got %v and %v", outcomes[0], outcomes[1])
	}
	// "slow" landed after the churn, evicting churn-3; it must now hit.
	if _, out, _ := c.getOrCompute("slow", fake(slow)); out != SourceMemory {
		t.Fatalf("slow lookup after landing: outcome %v", out)
	}
	if s := c.Stats().Mem; s.Entries != 1 || s.Evictions < 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMemCacheNilDisabled pins the disabled memory level: every lookup
// computes, nothing is cached or coalesced, and the stats stay zero.
func TestMemCacheNilDisabled(t *testing.T) {
	c := memTier(0, time.Minute)
	calls := 0
	for i := 0; i < 3; i++ {
		db, out, err := c.getOrCompute("k", fake(func() (*DB, error) { calls++; return fakeDB("n"), nil }))
		if err != nil || out != SourceComputed || db == nil {
			t.Fatalf("disabled lookup %d: db=%v outcome=%v err=%v", i, db, out, err)
		}
	}
	if calls != 3 {
		t.Fatalf("disabled memory level memoized: %d calls, want 3", calls)
	}
	if s := c.Stats().Mem; s != (MemStats{}) {
		t.Fatalf("disabled memory level stats = %+v", s)
	}
}

// TestTierSources walks one variant set through every tier level and
// proves the warm results are bit-identical to the cold compute — the
// "LRU hit ≡ cold compute" half of the PR's equivalence criterion.
func TestTierSources(t *testing.T) {
	em := energy.NewDefault()
	opts := Options{Workers: 1}
	variants := []Variant{{Kernel: eembc.Names()[0], Params: eembc.DefaultParams()}}
	dir := t.TempDir()

	tier := NewTier(8, 0, dir, em, opts)
	cold, src, err := tier.Characterize(variants)
	if err != nil || src != SourceComputed {
		t.Fatalf("cold: src=%v err=%v", src, err)
	}
	warm, src, err := tier.Characterize(variants)
	if err != nil || src != SourceMemory {
		t.Fatalf("memory: src=%v err=%v", src, err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("memory-tier DB differs from cold compute")
	}

	// A fresh tier over the same dir must hit disk, not recompute, and
	// the disk round-trip must also be bit-identical.
	tier2 := NewTier(8, 0, dir, em, opts)
	disk, src, err := tier2.Characterize(variants)
	if err != nil || src != SourceDisk {
		t.Fatalf("disk: src=%v err=%v", src, err)
	}
	if !reflect.DeepEqual(cold, disk) {
		t.Fatalf("disk-tier DB differs from cold compute")
	}

	// Memoryless, diskless tier always computes.
	tier3 := NewTier(0, 0, "", em, opts)
	if _, src, err := tier3.Characterize(variants); err != nil || src != SourceComputed {
		t.Fatalf("bare tier: src=%v err=%v", src, err)
	}
	if s := tier3.Stats(); s.Computed != 1 || s.Requests != 1 || s.DiskHits != 0 {
		t.Fatalf("bare tier stats = %+v", s)
	}

	s := tier.Stats()
	if s.Requests != 2 || s.Computed != 1 || s.Mem.Hits != 1 {
		t.Fatalf("tier stats = %+v", s)
	}
	if s2 := tier2.Stats(); s2.DiskHits != 1 || s2.Computed != 0 {
		t.Fatalf("tier2 stats = %+v", s2)
	}
}

// TestTierCoalescing proves concurrent tier lookups for the same variant
// set share one full characterization.
func TestTierCoalescing(t *testing.T) {
	em := energy.NewDefault()
	variants := []Variant{{Kernel: eembc.Names()[1], Params: eembc.DefaultParams()}}
	tier := NewTier(8, 0, "", em, Options{Workers: 1})

	const callers = 8
	var wg sync.WaitGroup
	srcs := make([]Source, callers)
	dbs := make([]*DB, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			db, src, err := tier.Characterize(variants)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			dbs[i], srcs[i] = db, src
		}(i)
	}
	close(start)
	wg.Wait()

	s := tier.Stats()
	if s.Computed != 1 {
		t.Fatalf("computed %d characterizations for %d concurrent identical requests", s.Computed, callers)
	}
	if s.Requests != callers {
		t.Fatalf("requests = %d, want %d", s.Requests, callers)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(dbs[0], dbs[i]) {
			t.Fatalf("caller %d result differs", i)
		}
	}
}
