package characterize

import (
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

// TestCacheKeyEngineInvariance pins the engine half of the invalidation
// contract: the engine cannot change results (TestEnginesBitIdentical), so
// like Workers it must not move the key — and a DB written by one engine
// must satisfy a warm load requested under the other.
func TestCacheKeyEngineInvariance(t *testing.T) {
	em := energy.NewDefault()
	variants := smallVariants()
	base, err := CacheKey(variants, em, Options{Engine: EngineStream})
	if err != nil {
		t.Fatal(err)
	}
	replayKey, err := CacheKey(variants, em, Options{Engine: EngineReplay})
	if err != nil {
		t.Fatal(err)
	}
	if replayKey != base {
		t.Fatal("Engine changed the cache key; the engines would not share warm entries")
	}

	// Cross-engine warm load: characterize under the reference engine,
	// then ask again under the streaming engine — it must come from disk.
	dir := t.TempDir()
	cold, fromCache, err := CharacterizeCached(variants, em, Options{Engine: EngineReplay}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("first run reported a cache hit in a fresh directory")
	}
	warm, fromCache, err := CharacterizeCached(variants, em, Options{Engine: EngineStream}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("stream request missed the cache the replay engine warmed")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cross-engine cached DB differs from the freshly built one")
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
