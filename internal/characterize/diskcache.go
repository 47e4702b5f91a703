package characterize

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"hetsched/internal/cache"
	"hetsched/internal/cacti"
	"hetsched/internal/energy"
)

// cacheSchemaVersion names the on-disk DB layout and the simulation
// semantics behind it. Bump it whenever a change invalidates previously
// characterized results that the content key cannot see: the Record/
// ConfigResult encoding, the VM or kernel implementations, the cache
// replacement model, or the Figure 4 energy formulas. Everything the key
// *can* see — design space, energy and CACTI constants, L2 extension
// parameters, the variant list — is hashed directly, so those changes
// invalidate automatically.
//
// v2: the one-pass simulation engine replaced per-configuration replay as
// the producer. The two are proven bit-identical (engine_test.go), so v1
// entries were still *correct* — the bump is defence in depth: if a future
// engine fix ever changes results, pre-one-pass caches can no longer be
// confused with post-one-pass ones. The version rides in the file name, so
// v1 entries read as plain misses. The engine never was part of the
// content key (nor is Options.Workers, which cannot change results either),
// so removing the user-selectable replay engine left every key unchanged;
// TestCacheKeyPinned holds that.
const cacheSchemaVersion = 2

// cacheKeyPayload is the canonical content hashed into a cache key.
type cacheKeyPayload struct {
	Schema   int
	Space    []cache.Config
	Energy   energy.Params
	Cacti    cacti.Params
	L2       *energy.L2Params `json:",omitempty"`
	Variants []Variant
}

// CacheKey derives the content key a characterization run is stored under:
// a hex SHA-256 over the schema version, the Table 1 design space, the
// energy-model and CACTI constants, the L2 extension parameters (if any),
// and the ordered variant list. Options.Workers is deliberately excluded —
// parallelism never changes results.
func CacheKey(variants []Variant, em *energy.Model, opts Options) (string, error) {
	if em == nil {
		return "", fmt.Errorf("characterize: nil energy model")
	}
	payload := cacheKeyPayload{
		Schema:   cacheSchemaVersion,
		Space:    cache.DesignSpace(),
		Energy:   em.Params(),
		Cacti:    em.Cacti().Params(),
		Variants: variants,
	}
	if opts.L2 != nil {
		lp := opts.L2.L2Params()
		payload.L2 = &lp
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("characterize: cache key: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// DefaultCacheDir returns the per-user characterization cache directory,
// $XDG_CACHE_HOME/hetsched or the platform equivalent.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("characterize: no user cache dir: %v", err)
	}
	return filepath.Join(base, "hetsched"), nil
}

// cachePath is the cache entry's location: the schema version rides in the
// name so a bump orphans (rather than misreads) old entries.
func cachePath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("characterize-v%d-%s.json", cacheSchemaVersion, key))
}

// LoadCached returns the DB stored under key in dir, or ok=false on any
// miss. Unreadable or corrupt entries are treated as misses, never errors:
// the caller falls back to characterizing from scratch.
func LoadCached(dir, key string) (*DB, bool) {
	f, err := os.Open(cachePath(dir, key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	db, err := Load(f)
	if err != nil {
		return nil, false
	}
	return db, true
}

// SaveCached stores db under key in dir, creating the directory if needed.
// The write is atomic (temp file + rename) so concurrent processes warming
// the same key never observe a torn entry.
func SaveCached(dir, key string, db *DB) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("characterize: cache dir: %v", err)
	}
	tmp, err := os.CreateTemp(dir, "characterize-*.tmp")
	if err != nil {
		return fmt.Errorf("characterize: cache write: %v", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := db.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("characterize: cache write: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("characterize: cache write: %v", err)
	}
	if err := os.Rename(tmp.Name(), cachePath(dir, key)); err != nil {
		return fmt.Errorf("characterize: cache write: %v", err)
	}
	return nil
}

// validCached defends against a corrupt-but-parseable entry: the stored DB
// must cover exactly the requested variants, and every record must be
// consistent. An entry that fails is a miss, so it never reaches training
// or scheduling.
func validCached(db *DB, variants []Variant) bool {
	if db == nil || len(db.Records) != len(variants) {
		return false
	}
	for i := range db.Records {
		r := &db.Records[i]
		if r.ID != i || r.Kernel != variants[i].Kernel || r.Params != variants[i].Params || !consistent(r) {
			return false
		}
	}
	return true
}

// consistent reports whether r obeys the invariants every characterization
// produces: one result per Table 1 configuration in design-space order,
// nonzero base cycles, and per configuration hits + misses = accesses,
// cycles ≥ base cycles, L2 hits + off-chip = misses when the L2 extension
// split them, and finite non-negative energies.
func consistent(r *Record) bool {
	space := cache.DesignSpace()
	if len(r.Configs) != len(space) || r.BaseCycles == 0 {
		return false
	}
	for j := range r.Configs {
		c := &r.Configs[j]
		if c.Config != space[j] || c.Hits > r.Accesses || c.Misses != r.Accesses-c.Hits || c.Cycles < r.BaseCycles {
			return false
		}
		if (c.L2Hits != 0 || c.OffChip != 0) && (c.L2Hits > c.Misses || c.OffChip != c.Misses-c.L2Hits) {
			return false
		}
		for _, e := range [...]float64{c.Energy.Static, c.Energy.Dynamic, c.Energy.Core, c.Energy.Total} {
			if !(e >= 0) || math.IsInf(e, 1) {
				return false
			}
		}
	}
	return true
}
