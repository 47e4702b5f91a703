package eembc

import (
	"testing"

	"hetsched/internal/isa"
	"hetsched/internal/vm"
)

// Behavioural checks: beyond "runs to completion", the kernels must do what
// their EEMBC archetypes do — these tests pin the properties the cache
// behaviour depends on.

// peek reads memory the way a kernel does: it runs load as a program on
// the same machine and returns the registers it left, restoring the
// machine's own.
func peek(m *vm.VM, load func(*isa.Builder) *isa.Builder) ([isa.NumRegs]int64, [isa.NumFRegs]float64, error) {
	regs, fregs := m.Regs, m.FRegs
	defer func() { m.Regs, m.FRegs = regs, fregs }()
	p, err := load(isa.NewBuilder("peek")).Halt().Build()
	if err == nil {
		_, err = m.Run(p, 0)
	}
	return m.Regs, m.FRegs, err
}

// peekFloat reads the float64 at addr.
func peekFloat(m *vm.VM, addr uint64) (float64, error) {
	_, fregs, err := peek(m, func(b *isa.Builder) *isa.Builder {
		return b.Li(isa.R1, int64(addr)).Flw(isa.F1, isa.R1, 0)
	})
	return fregs[isa.F1], err
}

// peekWord reads the 32-bit word at addr.
func peekWord(m *vm.VM, addr uint64) (int32, error) {
	regs, _, err := peek(m, func(b *isa.Builder) *isa.Builder {
		return b.Li(isa.R1, int64(addr)).Lw(isa.R2, isa.R1, 0)
	})
	return int32(regs[isa.R2]), err
}

func TestPeekReadsMemory(t *testing.T) {
	m := mustVM(64)
	if err := m.PokeFloat(8, -2.5); err != nil {
		t.Fatal(err)
	}
	if err := m.PokeWord(32, -7); err != nil {
		t.Fatal(err)
	}
	m.Regs[isa.R1] = 11
	if f, err := peekFloat(m, 8); err != nil || f != -2.5 {
		t.Errorf("peekFloat = %v, %v; want -2.5", f, err)
	}
	if w, err := peekWord(m, 32); err != nil || w != -7 {
		t.Errorf("peekWord = %v, %v; want -7", w, err)
	}
	if m.Regs[isa.R1] != 11 || m.Regs[isa.R2] != 0 || m.FRegs[isa.F1] != 0 {
		t.Error("peek left its registers behind")
	}
	if _, err := peekWord(m, 64); err == nil {
		t.Error("peekWord past the end succeeded")
	}
}

func record(t *testing.T, name string, p Params) (vm.Counters, *vm.Trace) {
	t.Helper()
	k, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctr, tr, err := Record(k, p)
	if err != nil {
		t.Fatal(err)
	}
	return ctr, tr
}

func TestPntrchVisitsEveryNode(t *testing.T) {
	// The pointer chase is a single cycle over all nodes: within one outer
	// iteration of >= nodes steps, every node must be touched.
	_, tr := record(t, "pntrch", Params{Scale: 1, Iterations: 1, Seed: 1})
	const nodes = 384
	seen := map[uint64]bool{}
	for _, a := range tr.Accesses {
		seen[a.Addr/16] = true // node index
	}
	if len(seen) < nodes {
		t.Errorf("pointer chase visited %d nodes, want all %d", len(seen), nodes)
	}
}

func TestPntrchIsLoadOnly(t *testing.T) {
	_, tr := record(t, "pntrch", DefaultParams())
	if tr.Writes() != 0 {
		t.Errorf("pointer chase issued %d writes", tr.Writes())
	}
}

func TestCachebTouchesWholeArray(t *testing.T) {
	// The cache buster's stride walk must scatter across (nearly) the full
	// 24 KB array, not orbit a small cycle.
	_, tr := record(t, "cacheb", DefaultParams())
	footprint := tr.Footprint(64) * 64
	if footprint < 20*1024 {
		t.Errorf("cache buster footprint %d bytes; want most of 24 KB", footprint)
	}
}

func TestCanrdrAcceptanceBand(t *testing.T) {
	// The CAN filter accepts ids with (id & 0x70) == 0x20 — 1/8 of random
	// ids. The store count (one status byte per accepted message) must sit
	// near that band.
	ctr, _ := record(t, "canrdr", Params{Scale: 1, Iterations: 1, Seed: 1})
	msgs := uint64(192 * 2) // iterations*2 outer passes at Iterations=1
	accepted := ctr.Stores
	lo, hi := msgs/16, msgs/3
	if accepted < lo || accepted > hi {
		t.Errorf("canrdr accepted %d of %d messages; expected roughly 1/8", accepted, msgs)
	}
}

func TestMatrixComputesRealProduct(t *testing.T) {
	// Spot-check C[0][0] = sum_k A[0][k]*B[k][0] by reconstructing the
	// inputs and reading back the VM's memory.
	k, err := ByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 1, Seed: 1}
	prog, err := k.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := mustVM(k.MemBytes(p))
	if err := k.Init(machine, p); err != nil {
		t.Fatal(err)
	}
	const dim = 16
	var want float64
	for kk := 0; kk < dim; kk++ {
		a, err := peekFloat(machine, uint64((0*dim+kk)*8))
		if err != nil {
			t.Fatal(err)
		}
		b, err := peekFloat(machine, uint64(dim*dim*8+(kk*dim+0)*8))
		if err != nil {
			t.Fatal(err)
		}
		want += a * b
	}
	if _, err := machine.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	got, err := peekFloat(machine, uint64(2*dim*dim*8))
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("C[0][0] = %v, want %v", got, want)
	}
}

func TestFFTValuesStayBounded(t *testing.T) {
	// The damped butterflies must keep every complex point finite and
	// modest across many outer iterations.
	k, err := ByName("aifftr")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 16, Seed: 2}
	prog, err := k.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := mustVM(k.MemBytes(p))
	if err := k.Init(machine, p); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128*2; i++ {
		v, err := peekFloat(machine, uint64(i*8))
		if err != nil {
			t.Fatal(err)
		}
		if v != v || v > 1e6 || v < -1e6 {
			t.Fatalf("fft point %d diverged to %v", i, v)
		}
	}
}

func TestIirfltProducesOutput(t *testing.T) {
	// The cascade must write a full output signal with non-trivial values.
	k, err := ByName("iirflt")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 1, Seed: 1}
	prog, err := k.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := mustVM(k.MemBytes(p))
	if err := k.Init(machine, p); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	const samples = 448
	outBase := uint64(2*7*8 + samples*8) // sections*7 floats + input
	nonZero := 0
	for i := 0; i < samples; i++ {
		v, err := peekFloat(machine, outBase+uint64(i*8))
		if err != nil {
			t.Fatal(err)
		}
		if v != v {
			t.Fatalf("output sample %d is NaN", i)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < samples/2 {
		t.Errorf("only %d of %d output samples non-zero", nonZero, samples)
	}
}

func TestKernelsRespectMemBounds(t *testing.T) {
	// MemBytes must be an honest upper bound: every access must fall
	// inside the declared memory size (the VM would error otherwise, but
	// verify the trace explicitly, including at a larger scale).
	for _, k := range Suite() {
		p := Params{Scale: 2, Iterations: 1, Seed: 3}
		limit := uint64(k.MemBytes(p))
		_, tr, err := Record(k, p)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, a := range tr.Accesses {
			if a.Addr >= limit {
				t.Fatalf("%s: access at %#x beyond declared %#x", k.Name, a.Addr, limit)
			}
		}
	}
}

func TestKernelProgramsDisassemble(t *testing.T) {
	// Every kernel must validate (no unknown opcode, register or branch
	// target) — a smoke test for the program builder output.
	for _, k := range Suite() {
		prog, err := k.Program(DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		halts := false
		for _, in := range prog.Instrs {
			halts = halts || in.Op == isa.HALT
		}
		if !halts {
			t.Errorf("%s: program has no halt", k.Name)
		}
	}
}

// Golden structural test for one kernel prologue: pins the builder output
// so accidental instruction reordering is caught.
func TestA2timePrologueGolden(t *testing.T) {
	k, err := ByName("a2time")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program(Params{Scale: 1, Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{isa.LI, isa.LI, isa.LI, isa.LI, isa.LI, isa.BEQ, isa.LI, isa.LI}
	if len(prog.Instrs) < len(want) {
		t.Fatalf("program too short: %d instrs", len(prog.Instrs))
	}
	for i, op := range want {
		if prog.Instrs[i].Op != op {
			t.Errorf("instr %d = %v, want %v\n%v", i, prog.Instrs[i].Op, op, prog.Instrs[:len(want)])
			break
		}
	}
}

// mustVM is vm.New for memory sizes known to be valid; it panics on error.
func mustVM(memBytes int) *vm.VM {
	m, err := vm.New(memBytes, nil)
	if err != nil {
		panic(err)
	}
	return m
}
