package eembc

import (
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/vm"
)

func TestSuiteHasSixteenDistinctKernels(t *testing.T) {
	suite := Suite()
	if len(suite) != 16 {
		t.Fatalf("suite has %d kernels, want 16", len(suite))
	}
	seen := map[string]bool{}
	for _, k := range suite {
		if k.Name == "" || k.Description == "" {
			t.Errorf("kernel %+v missing name or description", k.Name)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
		if k.Program == nil || k.Init == nil || k.MemBytes == nil {
			t.Errorf("kernel %s has nil hooks", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "matrix" {
		t.Errorf("ByName returned %q", k.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

// TestByNameMatchesAllKernels: every kernel AllKernels lists resolves by
// name to a kernel that executes identically, and the lookup table holds
// no name AllKernels lacks.
func TestByNameMatchesAllKernels(t *testing.T) {
	all := AllKernels()
	if got := len(constructors()); got != len(all) {
		t.Errorf("lookup table has %d names, AllKernels %d", got, len(all))
	}
	p := Params{Scale: 1, Iterations: 1, Seed: 1}
	for _, want := range all {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Description != want.Description {
			t.Errorf("ByName(%q) = %q (%s)", want.Name, got.Name, got.Description)
		}
		gc, err := Run(got, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := Run(want, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gc != wc {
			t.Errorf("%s: ByName kernel counters %+v, AllKernels kernel %+v", want.Name, gc, wc)
		}
	}
}

// TestByNameBuildsOneKernel bounds a lookup's allocations by those of the
// one constructor it calls, so it no longer builds the whole suite.
func TestByNameBuildsOneKernel(t *testing.T) {
	all := testing.AllocsPerRun(20, func() { AllKernels() })
	for name, ctor := range constructors() {
		one := testing.AllocsPerRun(20, func() { ctor() })
		lookup := testing.AllocsPerRun(20, func() {
			if _, err := ByName(name); err != nil {
				t.Fatal(err)
			}
		})
		if lookup > one || lookup >= all/4 {
			t.Errorf("ByName(%q) allocates %.0f times; its constructor %.0f, all kernels %.0f", name, lookup, one, all)
		}
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("Names() = %v", names)
	}
	if names[0] != "a2time" || names[15] != "ttsprk" {
		t.Errorf("unexpected order: %v", names)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{Scale: 0, Iterations: 1},
		{Scale: 1, Iterations: 0},
		{Scale: 17, Iterations: 1},
		{Scale: 1, Iterations: 2000},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v validated", p)
		}
	}
}

// Every kernel must build, validate, run to completion, touch memory, and
// execute a meaningful number of instructions.
func TestAllKernelsRunToCompletion(t *testing.T) {
	p := DefaultParams()
	for _, k := range Suite() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := k.Program(p)
			if err != nil {
				t.Fatalf("program: %v", err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			ctr, tr, err := Record(k, p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if ctr.Instructions < 10_000 {
				t.Errorf("only %d instructions executed", ctr.Instructions)
			}
			if tr.Len() < 1_000 {
				t.Errorf("only %d memory accesses", tr.Len())
			}
			if ctr.MemOps() != uint64(tr.Len()) {
				t.Errorf("counter mem ops %d != trace len %d", ctr.MemOps(), tr.Len())
			}
			if ctr.Cycles < ctr.Instructions {
				t.Errorf("cycles %d < instructions %d", ctr.Cycles, ctr.Instructions)
			}
		})
	}
}

// The suite must be deterministic: identical params yield identical counters
// and traces.
func TestKernelsDeterministic(t *testing.T) {
	p := Params{Scale: 1, Iterations: 2, Seed: 7}
	for _, k := range Suite() {
		c1, t1, err := Record(k, p)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		c2, t2, err := Record(k, p)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if c1 != c2 {
			t.Errorf("%s: counters diverged across identical runs", k.Name)
		}
		if t1.Len() != t2.Len() {
			t.Errorf("%s: trace lengths diverged: %d vs %d", k.Name, t1.Len(), t2.Len())
		}
	}
}

// Seeds must matter: at least the data-dependent kernels should produce
// different traces under different seeds (control flow may or may not
// change, but canrdr's accept/reject path must).
func TestSeedChangesDataDependentKernel(t *testing.T) {
	k, err := ByName("canrdr")
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := Record(k, Params{Scale: 1, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Record(k, Params{Scale: 1, Iterations: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("canrdr counters identical across seeds; data dependence lost")
	}
}

// Scale must grow the working set (the augmentation mechanism).
func TestScaleGrowsFootprint(t *testing.T) {
	for _, name := range []string{"a2time", "tblook", "pntrch", "matrix", "aifftr"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, t1, err := Record(k, Params{Scale: 1, Iterations: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, t2, err := Record(k, Params{Scale: 4, Iterations: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f1, f2 := t1.Footprint(64), t2.Footprint(64)
		if f2 <= f1 {
			t.Errorf("%s: footprint did not grow with scale: %d -> %d", name, f1, f2)
		}
	}
}

// The suite must span the memory-intensity spectrum: working sets from
// fitting a 2 KB cache to overflowing an 8 KB one, so that different kernels
// prefer different cores (the premise of the whole paper).
func TestSuiteSpansWorkingSetSpectrum(t *testing.T) {
	p := DefaultParams()
	small, large := 0, 0
	for _, k := range Suite() {
		_, tr, err := Record(k, p)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		bytes := tr.Footprint(64) * 64
		if bytes <= 2*1024 {
			small++
		}
		if bytes > 8*1024 {
			large++
		}
	}
	if small < 2 {
		t.Errorf("only %d kernels fit a 2KB cache; suite lacks small working sets", small)
	}
	if large < 2 {
		t.Errorf("only %d kernels overflow 8KB; suite lacks large working sets", large)
	}
}

// Kernels must differ from each other under the ANN's eyes: the instruction
// mixes must not collapse to one point.
func TestSuiteInstructionMixDiversity(t *testing.T) {
	p := DefaultParams()
	var fpHeavy, intOnly int
	for _, k := range Suite() {
		ctr, err := Run(k, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if ctr.FPOps*4 > ctr.Instructions {
			fpHeavy++
		}
		if ctr.FPOps == 0 {
			intOnly++
		}
	}
	if fpHeavy == 0 {
		t.Error("no FP-heavy kernels in suite")
	}
	if intOnly < 4 {
		t.Errorf("only %d integer-only kernels", intOnly)
	}
}

// Replaying a kernel trace through caches of growing size must not increase
// misses for the LRU-friendly kernels (sanity link between suite and cache).
func TestKernelMissRatesOrderedBySize(t *testing.T) {
	k, err := ByName("tblook") // random lookups in a 4KB table
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := Record(k, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	missFor := func(sizeKB int) uint64 {
		c, err := cache.NewL1(cache.Config{SizeKB: sizeKB, Ways: 1, LineBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr.Accesses {
			c.Access(a.Addr, a.Write)
		}
		return c.Stats().Misses
	}
	m2 := missFor(2)
	m4 := missFor(4)
	m8 := missFor(8)
	if !(m8 <= m4 && m4 <= m2) {
		t.Errorf("misses not monotone: 2KB=%d 4KB=%d 8KB=%d", m2, m4, m8)
	}
	if m8 == m2 {
		t.Error("cache size has no effect on tblook; working set miscalibrated")
	}
}

var sinkCounters vm.Counters

func BenchmarkKernelExecution(b *testing.B) {
	p := DefaultParams()
	for _, name := range []string{"a2time", "matrix", "cacheb"} {
		k, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr, err := Run(k, p, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkCounters = ctr
			}
		})
	}
}
