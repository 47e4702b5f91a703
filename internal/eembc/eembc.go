// Package eembc provides a suite of sixteen synthetic embedded kernels that
// stand in for the (licensed) EEMBC AutoBench suite the paper evaluates.
// Each kernel is a program for the internal/isa instruction set, executed by
// internal/vm. The kernels were designed to span the spectrum the paper's
// introduction motivates — memory-intensive vs compute-intensive, streaming
// vs random access, integer vs floating point — with data working sets from
// under 1 KB to well past 8 KB so that different kernels genuinely prefer
// different cache sizes (the property the ANN predictor must learn).
//
// Kernel names follow the EEMBC automotive suite they emulate (a2time,
// aifftr, …, ttsprk); the implementations are original.
package eembc

import (
	"fmt"
	"math/rand"
	"sync"

	"hetsched/internal/isa"
	"hetsched/internal/vm"
)

// Params scales a kernel. The zero value is not usable; use DefaultParams.
type Params struct {
	// Scale multiplies the kernel's data working set (1 = the paper-like
	// default). Larger scales shift the kernel's best cache size upward,
	// which is how the training-set augmentation produces label diversity.
	Scale int
	// Iterations repeats the kernel's outer loop; it controls execution
	// length without changing the working set.
	Iterations int
	// Seed drives deterministic data initialization.
	Seed int64
}

// DefaultParams returns the canonical configuration used for the paper's
// 15/16-benchmark experiments.
func DefaultParams() Params {
	return Params{Scale: 1, Iterations: 4, Seed: 1}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Scale < 1 || p.Scale > 16 {
		return fmt.Errorf("eembc: scale %d out of range [1,16]", p.Scale)
	}
	if p.Iterations < 1 || p.Iterations > 1024 {
		return fmt.Errorf("eembc: iterations %d out of range [1,1024]", p.Iterations)
	}
	return nil
}

// Kernel is one synthetic benchmark.
type Kernel struct {
	// Name is the EEMBC-style identifier, e.g. "aifftr".
	Name string
	// Description says what the kernel emulates.
	Description string
	// MemBytes returns the data-memory size the kernel needs under p.
	MemBytes func(p Params) int
	// Program builds the kernel's ISA program under p.
	Program func(p Params) (*isa.Program, error)
	// Init populates VM data memory before execution.
	Init func(v *vm.VM, p Params) error
}

// automotive lists the sixteen kernel constructors in canonical order.
var automotive = []func() Kernel{
	a2time, aifftr, aiifft, aifirf,
	basefp, bitmnp, cacheb, canrdr,
	idctrn, iirflt, matrix, pntrch,
	puwmod, rspeed, tblook, ttsprk,
}

// build runs each constructor into a freshly allocated slice.
func build(ctors []func() Kernel) []Kernel {
	out := make([]Kernel, len(ctors))
	for i, ctor := range ctors {
		out[i] = ctor()
	}
	return out
}

// Suite returns the sixteen kernels in canonical order. The slice is freshly
// allocated; callers may reorder it.
func Suite() []Kernel { return build(automotive) }

// constructors maps every kernel name, automotive and telecom, to its
// constructor. It is filled once, on the first lookup, so that each later
// ByName builds only the kernel it returns.
var constructors = sync.OnceValue(func() map[string]func() Kernel {
	m := make(map[string]func() Kernel, len(automotive)+len(telecom))
	for _, ctors := range [][]func() Kernel{automotive, telecom} {
		for _, ctor := range ctors {
			m[ctor().Name] = ctor
		}
	}
	return m
})

// ByName returns the kernel with the given name, searching both the
// automotive and telecom groups.
func ByName(name string) (Kernel, error) {
	if ctor, ok := constructors()[name]; ok {
		return ctor(), nil
	}
	return Kernel{}, fmt.Errorf("eembc: unknown kernel %q", name)
}

// Names returns the kernel names in canonical order.
func Names() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, k := range suite {
		out[i] = k.Name
	}
	return out
}

// Run executes kernel k under p, streaming memory accesses into sink (nil
// discards them), and returns the hardware counters.
func Run(k Kernel, p Params, sink vm.MemSink) (vm.Counters, error) {
	if err := p.Validate(); err != nil {
		return vm.Counters{}, err
	}
	prog, err := k.Program(p)
	if err != nil {
		return vm.Counters{}, fmt.Errorf("eembc: %s: %v", k.Name, err)
	}
	machine, err := vm.New(k.MemBytes(p), sink)
	if err != nil {
		return vm.Counters{}, fmt.Errorf("eembc: %s: %v", k.Name, err)
	}
	if err := k.Init(machine, p); err != nil {
		return vm.Counters{}, fmt.Errorf("eembc: %s init: %v", k.Name, err)
	}
	ctr, err := machine.Run(prog, 200_000_000)
	if err != nil {
		return ctr, fmt.Errorf("eembc: %s run: %w", k.Name, err)
	}
	return ctr, nil
}

// memOpsMemo caches each variant's access count (Counters.MemOps) after its
// first execution. Kernels are deterministic in (kernel, params), so every
// later recording of the same variant can presize its trace buffer exactly
// and perform zero append growth.
var memOpsMemo sync.Map // map[memoKey]int

type memoKey struct {
	name string
	p    Params
}

// knownMemOps returns the variant's access count if it has run before.
func knownMemOps(k Kernel, p Params) (int, bool) {
	v, ok := memOpsMemo.Load(memoKey{k.Name, p})
	if !ok {
		return 0, false
	}
	return v.(int), true
}

// Record executes kernel k under p while recording its full memory trace.
// The trace buffer is presized from the memoized access count of any prior
// run of the same variant (first runs grow by appending, as before).
func Record(k Kernel, p Params) (vm.Counters, *vm.Trace, error) {
	tr := &vm.Trace{}
	if n, ok := knownMemOps(k, p); ok {
		tr.Accesses = make([]vm.Access, 0, n)
	}
	ctr, err := Run(k, p, tr)
	if err == nil {
		memOpsMemo.Store(memoKey{k.Name, p}, int(ctr.MemOps()))
	}
	return ctr, tr, err
}

// rng returns the kernel's deterministic data source: seeded by both the
// global seed and the kernel name so kernels get distinct but reproducible
// data.
func rng(name string, p Params) *rand.Rand {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(p.Seed*1_000_003 + h))
}

// pokeWords fills count 32-bit words starting at base with gen(i).
func pokeWords(v *vm.VM, base uint64, count int, gen func(i int) int32) error {
	for i := 0; i < count; i++ {
		if err := v.PokeWord(base+uint64(i*4), gen(i)); err != nil {
			return err
		}
	}
	return nil
}

// pokeFloats fills count float64 slots starting at base with gen(i).
func pokeFloats(v *vm.VM, base uint64, count int, gen func(i int) float64) error {
	for i := 0; i < count; i++ {
		if err := v.PokeFloat(base+uint64(i*8), gen(i)); err != nil {
			return err
		}
	}
	return nil
}
