package characterize

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/eembc"
	"hetsched/internal/energy"
)

// TestCacheKeySensitivity pins the invalidation contract: anything that can
// change results must move the key, and anything that cannot must not.
func TestCacheKeySensitivity(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()
	base, err := CacheKey(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Workers is pure scheduling; it must share the serial key.
	same, err := CacheKey(variants, em, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Error("Workers changed the cache key; parallel and serial runs would not share entries")
	}

	// A different variant list is a different characterization.
	other, err := CacheKey(variants[:len(variants)-1], em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("dropping a variant did not change the cache key")
	}

	// Reordering matters too: record IDs are positional.
	shuffled := append([]Variant(nil), variants...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	reordered, err := CacheKey(shuffled, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reordered == base {
		t.Error("reordering variants did not change the cache key")
	}

	// Enabling the L2 extension changes every replay.
	l2, err := energy.NewL2(em, energy.DefaultL2Params())
	if err != nil {
		t.Fatal(err)
	}
	withL2, err := CacheKey(variants, em, Options{L2: l2})
	if err != nil {
		t.Fatal(err)
	}
	if withL2 == base {
		t.Error("enabling L2 did not change the cache key")
	}

	// Different energy constants give different energies.
	p := em.Params()
	p.StallNJPerCycle *= 2
	em2, err := energy.New(p, em.Cacti())
	if err != nil {
		t.Fatal(err)
	}
	changedEnergy, err := CacheKey(variants, em2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if changedEnergy == base {
		t.Error("changing energy params did not change the cache key")
	}
}

// TestCacheKeyPinned pins the content key of the two suites every command
// characterizes under the default energy model. A change that moves either
// key orphans every warm cache entry users hold; if that is intended, bump
// cacheSchemaVersion and re-pin.
func TestCacheKeyPinned(t *testing.T) {
	em := energy.NewDefault()
	for _, tc := range []struct {
		name     string
		variants []Variant
		want     string
	}{
		{"canonical", CanonicalVariants(), "126ea82ac196275c7f7ab61eefae8196259819cae93e85a1d41a4d86be23ed53"},
		{"augmented", AugmentedVariants(), "7103a7c4d05f73f64c00e24cc0849982d3eaa739f9ad06763654e8aa05560182"},
	} {
		got, err := CacheKey(tc.variants, em, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s cache key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCacheKeyEngineInvariance: a DB the replay reference built and saved
// under a key is served warm and equals a fresh stream build, so a cache
// entry written by either producer is interchangeable with the other's.
func TestCacheKeyEngineInvariance(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()
	key, err := CacheKey(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref, err := characterizeReplay(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCached(dir, key, ref); err != nil {
		t.Fatal(err)
	}
	warm, fromCache, err := CharacterizeCached(variants, em, Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("stream request missed the entry the replay reference saved")
	}
	fresh, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatal("warm DB saved by the replay reference differs from a fresh stream build")
	}
}

// TestCachePathCarriesSchemaVersion pins the invalidation mechanism for
// entries the content key cannot see: the version rides in the file name,
// so entries written under an older schema (e.g. v1, pre-one-pass) are
// orphaned — read as plain misses, never deserialized.
func TestCachePathCarriesSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	em := energy.NewDefault()
	variants := smallVariants()
	key, err := CacheKey(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := cachePath(dir, key)
	if want := "characterize-v2-"; !strings.Contains(path, want) {
		t.Fatalf("cache path %q does not carry schema version (%q)", path, want)
	}

	// Plant a plausible entry at the previous version's path: it must be
	// invisible to LoadCached.
	db, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, "characterize-v1-"+key+".json")
	f, err := os.Create(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := LoadCached(dir, key); ok {
		t.Fatal("LoadCached read an entry written under the previous schema version")
	}
}

// TestCharacterizeCachedWarmHit is the acceptance test for the persistent
// cache: the second run must come from disk, match the first bit for bit,
// and perform zero kernel replays.
func TestCharacterizeCachedWarmHit(t *testing.T) {
	dir := t.TempDir()
	em := energy.NewDefault()
	variants := smallVariants()

	cold, fromCache, err := CharacterizeCached(variants, em, Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("first run reported a cache hit in a fresh directory")
	}

	before := ReplayCount()
	warm, fromCache, err := CharacterizeCached(variants, em, Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("second run missed the cache")
	}
	if got := ReplayCount(); got != before {
		t.Fatalf("warm load replayed kernels: ReplayCount %d -> %d", before, got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached DB differs from the freshly built one")
	}
}

// TestCharacterizeCachedEmptyDir pins the opt-out: dir == "" bypasses the
// cache entirely.
func TestCharacterizeCachedEmptyDir(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()[:1]
	_, fromCache, err := CharacterizeCached(variants, em, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("cache hit reported with caching disabled")
	}
}

// TestLoadCachedCorrupt ensures a torn or truncated entry degrades to a
// miss, never an error or a bad DB.
func TestLoadCachedCorrupt(t *testing.T) {
	dir := t.TempDir()
	em := energy.NewDefault()
	variants := smallVariants()[:1]
	key, err := CacheKey(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := LoadCached(dir, key); ok {
		t.Fatal("hit on an empty directory")
	}

	if err := os.WriteFile(cachePath(dir, key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCached(dir, key); ok {
		t.Fatal("corrupt entry reported as a hit")
	}

	// CharacterizeCached must fall through the corrupt entry, rebuild, and
	// repair the entry on disk.
	_, fromCache, err := CharacterizeCached(variants, em, Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if _, ok := LoadCached(dir, key); !ok {
		t.Fatal("rebuild did not repair the corrupt entry")
	}
}

// TestValidCached exercises the parseable-but-wrong defenses.
func TestValidCached(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()[:2]
	db, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if !validCached(db, variants) {
		t.Fatal("freshly built DB rejected")
	}
	if validCached(nil, variants) {
		t.Error("nil DB accepted")
	}
	if validCached(db, variants[:1]) {
		t.Error("record-count mismatch accepted")
	}

	wrongKernel := *db
	wrongKernel.Records = append([]Record(nil), db.Records...)
	wrongKernel.Records[0].Kernel = "other"
	if validCached(&wrongKernel, variants) {
		t.Error("kernel-name mismatch accepted")
	}

	wrongParams := *db
	wrongParams.Records = append([]Record(nil), db.Records...)
	wrongParams.Records[1].Params = eembc.Params{Scale: 99, Iterations: 1, Seed: 7}
	if validCached(&wrongParams, variants) {
		t.Error("params mismatch accepted")
	}

	truncated := *db
	truncated.Records = append([]Record(nil), db.Records...)
	truncated.Records[0].Configs = truncated.Records[0].Configs[:3]
	if validCached(&truncated, variants) {
		t.Error("truncated config list accepted")
	}
}

// TestCharacterizedRecordsConsistent: every record the pipeline produces,
// in the paper's L1-only mode and with the L2 extension, passes the
// consistency checks a cached entry must pass.
func TestCharacterizedRecordsConsistent(t *testing.T) {
	aug, err := Augmented()
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"augmented": aug, "l2": mustL2(t)} {
		for i := range db.Records {
			if !consistent(&db.Records[i]) {
				t.Errorf("%s record %d (%s) fails the consistency checks", name, i, db.Records[i].Kernel)
			}
		}
	}
}

// TestInconsistentCacheEntryIsAMiss: each corruption of a parseable entry
// makes it a cache miss that recomputes and repairs the entry.
func TestInconsistentCacheEntryIsAMiss(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()[:1]
	fresh, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(r *Record)
		// nonFinite marks a value JSON cannot carry: such an entry cannot
		// be written, so it never reaches the loader.
		nonFinite bool
	}{
		{"NaN energy", func(r *Record) { r.Configs[3].Energy.Dynamic = math.NaN() }, true},
		{"infinite energy", func(r *Record) { r.Configs[0].Energy.Total = math.Inf(1) }, true},
		{"negative energy", func(r *Record) { r.Configs[5].Energy.Static = -1 }, false},
		{"zero base cycles", func(r *Record) { r.BaseCycles = 0 }, false},
		{"cycles below base", func(r *Record) { r.Configs[2].Cycles = r.BaseCycles - 1 }, false},
		{"hits + misses != accesses", func(r *Record) { r.Configs[7].Hits++ }, false},
		{"hits overflow accesses", func(r *Record) {
			r.Configs[7].Hits, r.Configs[7].Misses = math.MaxUint64, r.Accesses+1
		}, false},
		{"L2 split != misses", func(r *Record) { r.Configs[1].L2Hits = 1 }, false},
		{"configs out of order", func(r *Record) { r.Configs[0], r.Configs[1] = r.Configs[1], r.Configs[0] }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *fresh
			bad.Records = append([]Record(nil), fresh.Records...)
			bad.Records[0].Configs = append([]ConfigResult(nil), fresh.Records[0].Configs...)
			tc.corrupt(&bad.Records[0])
			if validCached(&bad, variants) {
				t.Fatal("corrupt DB accepted")
			}
			dir := t.TempDir()
			err := SaveCached(dir, key, &bad)
			if tc.nonFinite {
				if err == nil {
					t.Fatal("a non-finite energy was written to the cache")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			db, fromCache, err := CharacterizeCached(variants, em, Options{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if fromCache {
				t.Fatal("corrupt entry served as a cache hit")
			}
			if !reflect.DeepEqual(db, fresh) {
				t.Fatal("recomputed DB differs from a fresh build")
			}
			if _, fromCache, _ := CharacterizeCached(variants, em, Options{}, dir); !fromCache {
				t.Fatal("recompute did not repair the entry")
			}
		})
	}
}
