package characterize

import (
	"sync"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/energy"
)

var (
	l2Once sync.Once
	l2DB   *DB
	l2Err  error
)

func mustL2(t testing.TB) *DB {
	t.Helper()
	l2Once.Do(func() {
		em := energy.NewDefault()
		l2, err := energy.NewL2(em, energy.DefaultL2Params())
		if err != nil {
			l2Err = err
			return
		}
		l2DB, l2Err = CharacterizeWithOptions(CanonicalVariants(), em, Options{L2: l2})
	})
	if l2Err != nil {
		t.Fatal(l2Err)
	}
	return l2DB
}

func TestL2CharacterizationInvariants(t *testing.T) {
	db := mustL2(t)
	if len(db.Records) != 16 {
		t.Fatalf("L2 DB has %d records", len(db.Records))
	}
	for i := range db.Records {
		r := &db.Records[i]
		for _, cr := range r.Configs {
			if cr.Hits+cr.Misses != r.Accesses {
				t.Errorf("%s/%s: hits+misses != accesses", r.Kernel, cr.Config)
			}
			if cr.L2Hits+cr.OffChip != cr.Misses {
				t.Errorf("%s/%s: L2 split %d+%d != misses %d",
					r.Kernel, cr.Config, cr.L2Hits, cr.OffChip, cr.Misses)
			}
		}
	}
}

// An L2 can only help: per configuration, cycles and dynamic energy under
// the L2 model must not exceed the L1-only model (same trace, same L1
// behaviour, misses serviced at or below off-chip cost).
func TestL2NeverWorseThanL1Only(t *testing.T) {
	l1db := mustDefault(t)
	l2db := mustL2(t)
	for i := range l1db.Records {
		a, b := &l1db.Records[i], &l2db.Records[i]
		if a.Kernel != b.Kernel {
			t.Fatal("record order mismatch")
		}
		for j := range a.Configs {
			ca, cb := a.Configs[j], b.Configs[j]
			if ca.Config != cb.Config {
				t.Fatal("config order mismatch")
			}
			if cb.Cycles > ca.Cycles {
				t.Errorf("%s/%s: L2 cycles %d exceed L1-only %d",
					a.Kernel, ca.Config, cb.Cycles, ca.Cycles)
			}
		}
	}
}

// The extension's architectural effect: with an L2 softening miss
// penalties, small L1s become more attractive — the best-size distribution
// must shift toward (or at least not away from) smaller caches.
func TestL2ShiftsBestSizesDownward(t *testing.T) {
	l1db := mustDefault(t)
	l2db := mustL2(t)
	sum := func(db *DB) int {
		total := 0
		for i := range db.Records {
			total += db.Records[i].BestSizeKB()
		}
		return total
	}
	s1, s2 := sum(l1db), sum(l2db)
	t.Logf("sum of best sizes: L1-only %d KB, with L2 %d KB", s1, s2)
	if s2 > s1 {
		t.Errorf("L2 shifted best sizes upward (%d -> %d KB); miss softening inverted", s1, s2)
	}
}

func TestL2MissRatesNeverIncreaseVsL1Only(t *testing.T) {
	// The L1 sees the same stream either way; its hit/miss counts must be
	// identical between the two modes.
	l1db := mustDefault(t)
	l2db := mustL2(t)
	for i := range l1db.Records {
		for j := range l1db.Records[i].Configs {
			a := l1db.Records[i].Configs[j]
			b := l2db.Records[i].Configs[j]
			if a.Hits != b.Hits || a.Misses != b.Misses {
				t.Errorf("%s/%s: L1 behaviour changed under L2 mode",
					l1db.Records[i].Kernel, a.Config)
			}
		}
	}
}

func TestL1OnlyModeMarksAllMissesOffChip(t *testing.T) {
	db := mustDefault(t)
	for i := range db.Records {
		for _, cr := range db.Records[i].Configs {
			if cr.L2Hits != 0 {
				t.Errorf("%s/%s: L2 hits in L1-only mode", db.Records[i].Kernel, cr.Config)
			}
			if cr.OffChip != cr.Misses {
				t.Errorf("%s/%s: off-chip %d != misses %d",
					db.Records[i].Kernel, cr.Config, cr.OffChip, cr.Misses)
			}
		}
	}
}

func TestL2DBDrivesSchedulerEndToEnd(t *testing.T) {
	// The scheduler consumes the DB generically; an L2-aware DB must work
	// through the same pipeline (spot check: best-config lookups).
	db := mustL2(t)
	for i := range db.Records {
		best := db.Records[i].BestConfig()
		if !best.Config.Valid() {
			t.Fatalf("%s: invalid best config", db.Records[i].Kernel)
		}
		if _, err := db.Records[i].BestConfigForSize(cache.BaseConfig.SizeKB); err != nil {
			t.Fatal(err)
		}
	}
}
