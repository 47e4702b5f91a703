package characterize

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hetsched/internal/eembc"
	"hetsched/internal/energy"
)

// diffDBs pinpoints the first divergence between two DBs so an equivalence
// failure names the kernel/config/field instead of dumping two databases.
func diffDBs(t *testing.T, stream, replay *DB) {
	t.Helper()
	if len(stream.Records) != len(replay.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(stream.Records), len(replay.Records))
	}
	for i := range stream.Records {
		a, b := &stream.Records[i], &replay.Records[i]
		if a.Kernel != b.Kernel || a.Params != b.Params || a.ID != b.ID {
			t.Errorf("record %d identity differs: %s/%+v vs %s/%+v", i, a.Kernel, a.Params, b.Kernel, b.Params)
			continue
		}
		if a.BaseCycles != b.BaseCycles || a.Accesses != b.Accesses {
			t.Errorf("%s: base cycles/accesses differ: %d/%d vs %d/%d",
				a.Kernel, a.BaseCycles, a.Accesses, b.BaseCycles, b.Accesses)
		}
		if a.Features != b.Features {
			t.Errorf("%s: features differ:\n stream %v\n replay %v", a.Kernel, a.Features, b.Features)
		}
		for j := range a.Configs {
			ca, cb := a.Configs[j], b.Configs[j]
			if ca != cb {
				t.Errorf("%s %s: stream %+v\n              replay %+v", a.Kernel, ca.Config, ca, cb)
			}
		}
	}
}

// TestEnginesBitIdentical is the golden equivalence gate: the streaming
// engine must produce DBs bit-identical (hits, misses, L2 splits, cycles,
// features, every energy float) to the per-configuration replay reference
// across every EEMBC kernel and all 18 configurations.
func TestEnginesBitIdentical(t *testing.T) {
	em := energy.NewDefault()
	variants := ExtendedVariants() // all 20 kernels: automotive + telecom
	if testing.Short() {
		variants = variants[:4]
	}
	stream, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := characterizeReplay(variants, em, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stream, replay) {
		diffDBs(t, stream, replay)
		t.Fatal("streaming and replay engines diverge (see per-field diffs above)")
	}
}

// TestEnginesBitIdenticalL2 repeats the gate under the two-level hierarchy
// mode, where the streaming simulator must reproduce each configuration's
// private L2 stream (writeback ordering included).
func TestEnginesBitIdenticalL2(t *testing.T) {
	em := energy.NewDefault()
	l2, err := energy.NewL2(em, energy.DefaultL2Params())
	if err != nil {
		t.Fatal(err)
	}
	variants := CanonicalVariants() // the 16 automotive kernels
	if testing.Short() {
		variants = variants[:3]
	}
	stream, err := CharacterizeWithOptions(variants, em, Options{L2: l2})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := characterizeReplay(variants, em, Options{L2: l2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stream, replay) {
		diffDBs(t, stream, replay)
		t.Fatal("engines diverge under L2 mode (see per-field diffs above)")
	}
}

// randomVariants draws n kernel variants with seed-derived random scales,
// iteration counts, data seeds and kernel choices — workloads no golden test
// pinned, exercising footprints and access patterns the canonical suites
// never hit.
func randomVariants(seed int64, n int) []Variant {
	rng := rand.New(rand.NewSource(seed))
	kernels := eembc.AllKernels()
	out := make([]Variant, n)
	for i := range out {
		out[i] = Variant{
			Kernel: kernels[rng.Intn(len(kernels))].Name,
			Params: eembc.Params{
				Scale:      1 + rng.Intn(4),
				Iterations: 1 + rng.Intn(6),
				Seed:       rng.Int63n(1 << 32),
			},
		}
	}
	return out
}

// TestEnginesEquivalentRandom is the property-based equivalence gate: for a
// table of seeds, randomly drawn kernel variants must characterize
// bit-identically under the streaming engine and the replay reference. The
// fixed golden tests above pin the canonical suites; this one probes the
// space between them (and runs under -race via make test-race).
func TestEnginesEquivalentRandom(t *testing.T) {
	em := energy.NewDefault()
	seeds := []int64{2, 17, 404, 9001, 271828}
	perSeed := 3
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 2
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			variants := randomVariants(seed, perSeed)
			stream, err := CharacterizeWithOptions(variants, em, Options{})
			if err != nil {
				t.Fatalf("stream on %+v: %v", variants, err)
			}
			replay, err := characterizeReplay(variants, em, Options{})
			if err != nil {
				t.Fatalf("replay on %+v: %v", variants, err)
			}
			if !reflect.DeepEqual(stream, replay) {
				diffDBs(t, stream, replay)
				t.Fatalf("stream vs replay diverge on random variants %+v", variants)
			}
		})
	}
}

// TestEngineTraversalCounts asserts the observable 18×→1 reduction:
// streaming characterization performs exactly one traversal per variant,
// the replay reference one per (variant, configuration).
func TestEngineTraversalCounts(t *testing.T) {
	em := energy.NewDefault()
	variants := CanonicalVariants()[:2]

	var streams atomic.Uint64
	counted := func(v Variant, em *energy.Model, opts Options, jobs chan jobFunc) (Record, error) {
		streams.Add(1)
		return characterizeOneStream(v, em, opts, jobs)
	}
	if _, err := characterizeVariants(variants, em, Options{}, counted); err != nil {
		t.Fatal(err)
	}
	if got := streams.Load(); got != uint64(len(variants)) {
		t.Errorf("stream traversals = %d, want %d (one per variant)", got, len(variants))
	}

	before := replayTraversals.Load()
	if _, err := characterizeReplay(variants, em, Options{}); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(variants) * 18)
	if got := replayTraversals.Load() - before; got != want {
		t.Errorf("replay traversals = %d, want %d (one per variant-config pair)", got, want)
	}
}
