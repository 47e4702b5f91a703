package characterize

import (
	"bytes"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
)

func mustDefault(t testing.TB) *DB {
	t.Helper()
	db, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDefaultCoversSuiteAndSpace(t *testing.T) {
	db := mustDefault(t)
	if len(db.Records) != 16 {
		t.Fatalf("default DB has %d records, want 16", len(db.Records))
	}
	for i, r := range db.Records {
		if r.ID != i {
			t.Errorf("record %d has ID %d", i, r.ID)
		}
		if len(r.Configs) != 18 {
			t.Errorf("%s: %d configs, want 18", r.Kernel, len(r.Configs))
		}
		for _, cr := range r.Configs {
			if cr.Hits+cr.Misses != r.Accesses {
				t.Errorf("%s/%s: hits+misses %d != accesses %d",
					r.Kernel, cr.Config, cr.Hits+cr.Misses, r.Accesses)
			}
			if cr.Cycles < r.BaseCycles {
				t.Errorf("%s/%s: cycles %d below base %d", r.Kernel, cr.Config, cr.Cycles, r.BaseCycles)
			}
			if cr.Energy.Total <= 0 {
				t.Errorf("%s/%s: non-positive energy", r.Kernel, cr.Config)
			}
		}
	}
}

// The calibration property the whole paper rests on: different benchmarks
// must prefer different cache sizes. With a single dominant size the
// heterogeneous system and the ANN would be pointless.
func TestBestSizesAreDiverse(t *testing.T) {
	db := mustDefault(t)
	counts := map[int]int{}
	for i := range db.Records {
		counts[db.Records[i].BestSizeKB()]++
	}
	t.Logf("best-size distribution: %v", counts)
	if len(counts) < 2 {
		t.Fatalf("all benchmarks prefer the same cache size: %v", counts)
	}
	for _, size := range []int{2, 8} {
		if counts[size] == 0 {
			t.Errorf("no benchmark prefers %dKB; suite/energy calibration is off (%v)", size, counts)
		}
	}
}

// Misses must be monotone non-increasing in capacity for fixed geometry —
// inherited from the cache, revalidated on real workloads end to end.
func TestMissesMonotoneAcrossSizes(t *testing.T) {
	db := mustDefault(t)
	for i := range db.Records {
		r := &db.Records[i]
		for _, line := range cache.LineSizes() {
			cfg2 := cache.Config{SizeKB: 2, Ways: 1, LineBytes: line}
			cfg8 := cache.Config{SizeKB: 8, Ways: 1, LineBytes: line}
			r2, err := r.Result(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			r8, err := r.Result(cfg8)
			if err != nil {
				t.Fatal(err)
			}
			if r8.Misses > r2.Misses {
				t.Errorf("%s: 8KB misses (%d) exceed 2KB misses (%d) at line %d",
					r.Kernel, r8.Misses, r2.Misses, line)
			}
		}
	}
}

func TestBestConfigForSizeSubset(t *testing.T) {
	db := mustDefault(t)
	r := &db.Records[0]
	for _, size := range cache.Sizes() {
		best, err := r.BestConfigForSize(size)
		if err != nil {
			t.Fatal(err)
		}
		if best.Config.SizeKB != size {
			t.Errorf("BestConfigForSize(%d) returned %s", size, best.Config)
		}
		// It must actually be minimal within the subset.
		for _, cr := range r.Configs {
			if cr.Config.SizeKB == size && cr.Energy.Total < best.Energy.Total {
				t.Errorf("BestConfigForSize(%d) missed better config %s", size, cr.Config)
			}
		}
	}
	if _, err := r.BestConfigForSize(64); err == nil {
		t.Error("BestConfigForSize(64) succeeded")
	}
}

func TestFindAndRecordLookups(t *testing.T) {
	db := mustDefault(t)
	r, err := db.Find("matrix", eembc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Kernel != "matrix" {
		t.Errorf("Find returned %s", r.Kernel)
	}
	if _, err := db.Find("matrix", eembc.Params{Scale: 9, Iterations: 1, Seed: 1}); err == nil {
		t.Error("Find(nonexistent params) succeeded")
	}
	if _, err := db.Record(-1); err == nil {
		t.Error("Record(-1) succeeded")
	}
	if _, err := db.Record(len(db.Records)); err == nil {
		t.Error("Record(out of range) succeeded")
	}
	got, err := db.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel != "matrix" {
		t.Errorf("Record(%d) = %s", r.ID, got.Kernel)
	}
}

func TestResultUnknownConfig(t *testing.T) {
	db := mustDefault(t)
	if _, err := db.Records[0].Result(cache.Config{SizeKB: 64, Ways: 1, LineBytes: 16}); err == nil {
		t.Error("Result(unknown config) succeeded")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := mustDefault(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(db.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(db.Records))
	}
	for i := range db.Records {
		a, b := &db.Records[i], &got.Records[i]
		if a.Kernel != b.Kernel || a.Accesses != b.Accesses || a.BaseCycles != b.BaseCycles {
			t.Errorf("record %d differs after round trip", i)
		}
		if a.BestConfig().Config != b.BestConfig().Config {
			t.Errorf("record %d best config differs after round trip", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("Load(garbage) succeeded")
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize(nil, energy.NewDefault()); err == nil {
		t.Error("Characterize(no variants) succeeded")
	}
	if _, err := Characterize(CanonicalVariants(), nil); err == nil {
		t.Error("Characterize(nil model) succeeded")
	}
	bad := []Variant{{Kernel: "nope", Params: eembc.DefaultParams()}}
	if _, err := Characterize(bad, energy.NewDefault()); err == nil {
		t.Error("Characterize(unknown kernel) succeeded")
	}
}

// The profiling features must be populated (non-zero instruction counts,
// footprints, and a sane miss rate).
func TestFeaturesPopulated(t *testing.T) {
	db := mustDefault(t)
	for i := range db.Records {
		r := &db.Records[i]
		f := r.Features
		if f[0] == 0 { // instructions
			t.Errorf("%s: zero instruction feature", r.Kernel)
		}
		sel := f.Select()
		nonZero := 0
		for _, v := range sel {
			if v != 0 {
				nonZero++
			}
		}
		if nonZero < 5 {
			t.Errorf("%s: only %d non-zero selected features", r.Kernel, nonZero)
		}
	}
}

func TestVariantPools(t *testing.T) {
	if got := len(CanonicalVariants()); got != 16 {
		t.Errorf("canonical pool %d, want 16", got)
	}
	if got := len(TelecomVariants()); got != 4 {
		t.Errorf("telecom pool %d, want 4", got)
	}
	if got := len(ExtendedVariants()); got != 20 {
		t.Errorf("extended pool %d, want 20", got)
	}
	if got := len(AugmentedVariants()); got != 16*6 {
		t.Errorf("augmented pool %d, want 96", got)
	}
	if got := len(AugmentedExtendedVariants()); got != 20*6 {
		t.Errorf("augmented extended pool %d, want 120", got)
	}
	// Every variant must name a real kernel and carry valid params.
	for _, v := range AugmentedExtendedVariants() {
		if _, err := eembc.ByName(v.Kernel); err != nil {
			t.Errorf("variant names unknown kernel %q", v.Kernel)
		}
		if err := v.Params.Validate(); err != nil {
			t.Errorf("variant %q params invalid: %v", v.Kernel, err)
		}
	}
}

func TestAugmentedCached(t *testing.T) {
	a, err := Augmented()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Augmented()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Augmented() did not return the cached instance")
	}
	if len(a.Records) != 96 {
		t.Errorf("augmented DB has %d records, want 96", len(a.Records))
	}
}

func BenchmarkCharacterizeOneKernel(b *testing.B) {
	em := energy.NewDefault()
	v := []Variant{{Kernel: "a2time", Params: eembc.DefaultParams()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(v, em); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeOneKernelReplay is the same work on the replay
// reference (18 replays per kernel) — the denominator of the EXPERIMENTS.md
// speedup table.
func BenchmarkCharacterizeOneKernelReplay(b *testing.B) {
	em := energy.NewDefault()
	v := []Variant{{Kernel: "a2time", Params: eembc.DefaultParams()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := characterizeReplay(v, em, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
