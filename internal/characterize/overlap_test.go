package characterize

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hetsched/internal/eembc"
	"hetsched/internal/energy"
)

// TestOverlapMatchesReplay: a one-variant call at Workers ≥ 2 leaves a
// worker idle, so its kernel execution overlaps its cache simulation. Each
// such record must equal the replay reference's, in both L1 and L2 modes.
func TestOverlapMatchesReplay(t *testing.T) {
	em := energy.NewDefault()
	l2, err := energy.NewL2(em, energy.DefaultL2Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		opts     Options
		variants []Variant
	}{
		{"L1", Options{}, ExtendedVariants()},
		{"L2", Options{L2: l2}, CanonicalVariants()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			variants := mode.variants
			if testing.Short() {
				variants = variants[:3]
			}
			replay, err := characterizeReplay(variants, em, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range variants {
				opts := mode.opts
				opts.Workers = 2 + i%3
				got, err := CharacterizeWithOptions([]Variant{v}, em, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := &DB{Records: []Record{replay.Records[i]}}
				want.Records[0].ID = 0
				if !reflect.DeepEqual(got, want) {
					diffDBs(t, got, want)
					t.Fatalf("%s: overlapped record differs from the replay reference", v.Kernel)
				}
			}
		})
	}
}

// TestOverlapFailingKernelLeavesNoGoroutine: a kernel that fails after its
// sink's consumer has started must still have the consumer joined.
func TestOverlapFailingKernelLeavesNoGoroutine(t *testing.T) {
	em := energy.NewDefault()
	bad := Variant{Kernel: "a2time", Params: eembc.Params{Scale: 0, Iterations: 4, Seed: 1}}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := CharacterizeWithOptions([]Variant{bad}, em, Options{Workers: 2}); err == nil {
			t.Fatal("scale 0 accepted")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
