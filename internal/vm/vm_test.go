package vm

import (
	"errors"
	"strings"
	"testing"

	"hetsched/internal/isa"
)

// sumProgram computes sum of n words stored at base, leaving the result in R5.
func sumProgram(base uint64, n int64) *isa.Program {
	return mustBuild(isa.NewBuilder("sum").
		Li(isa.R1, int64(base)). // pointer
		Li(isa.R2, n).           // remaining
		Li(isa.R5, 0).           // acc
		Label("loop").
		Beq(isa.R2, isa.R0, "done").
		Lw(isa.R3, isa.R1, 0).
		Add(isa.R5, isa.R5, isa.R3).
		Addi(isa.R1, isa.R1, 4).
		Addi(isa.R2, isa.R2, -1).
		Jmp("loop").
		Label("done").
		Halt())
}

func TestRunComputesSum(t *testing.T) {
	v := MustNew(1024, nil)
	want := int64(0)
	for i := 0; i < 10; i++ {
		if err := v.PokeWord(uint64(i*4), int32(i*i)); err != nil {
			t.Fatal(err)
		}
		want += int64(i * i)
	}
	ctr, err := v.Run(sumProgram(0, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Regs[isa.R5] != want {
		t.Errorf("sum = %d, want %d", v.Regs[isa.R5], want)
	}
	if ctr.Loads != 10 {
		t.Errorf("loads = %d, want 10", ctr.Loads)
	}
	if ctr.Instructions == 0 || ctr.Cycles < ctr.Instructions {
		t.Errorf("implausible counters %+v", ctr)
	}
}

func TestR0Hardwired(t *testing.T) {
	v := MustNew(64, nil)
	p := mustBuild(isa.NewBuilder("r0").
		Li(isa.R0, 99).
		Addi(isa.R0, isa.R0, 5).
		Halt())
	if _, err := v.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	if v.Regs[isa.R0] != 0 {
		t.Errorf("R0 = %d, want 0", v.Regs[isa.R0])
	}
}

func TestTraceRecordsAccessesInOrder(t *testing.T) {
	tr := &Trace{}
	v := MustNew(1024, tr)
	p := mustBuild(isa.NewBuilder("mem").
		Li(isa.R1, 100).
		Lw(isa.R2, isa.R1, 0).
		Sw(isa.R2, isa.R1, 4).
		Lb(isa.R3, isa.R1, 8).
		Sb(isa.R3, isa.R1, 9).
		Halt())
	ctr, err := v.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{{100, false}, {104, true}, {108, false}, {109, true}}
	if tr.Len() != len(want) {
		t.Fatalf("trace len = %d, want %d", tr.Len(), len(want))
	}
	for i, a := range want {
		if tr.Accesses[i] != a {
			t.Errorf("access[%d] = %+v, want %+v", i, tr.Accesses[i], a)
		}
	}
	if ctr.Loads != 2 || ctr.Stores != 2 {
		t.Errorf("counters %+v, want 2 loads 2 stores", ctr)
	}
	if ctr.LoadBytes != 5 || ctr.StoreBytes != 5 {
		t.Errorf("byte counters %+v", ctr)
	}
}

func TestFloatPath(t *testing.T) {
	v := MustNew(1024, nil)
	if err := v.PokeFloat(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := v.PokeFloat(8, 2.25); err != nil {
		t.Fatal(err)
	}
	p := mustBuild(isa.NewBuilder("fp").
		Flw(isa.F1, isa.R0, 0).
		Flw(isa.F2, isa.R0, 8).
		Fadd(isa.F3, isa.F1, isa.F2).
		Fmul(isa.F4, isa.F3, isa.F3).
		Fsw(isa.F4, isa.R0, 16).
		Halt())
	ctr, err := v.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.PeekFloat(16)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.5 + 2.25) * (1.5 + 2.25); got != want {
		t.Errorf("fp result = %v, want %v", got, want)
	}
	if ctr.FPOps != 2 {
		t.Errorf("FPOps = %d, want 2", ctr.FPOps)
	}
}

func TestBranchCounters(t *testing.T) {
	v := MustNew(64, nil)
	// Loop 5 times: branch taken 5 times (jmp) + final not-taken beq... count exact.
	p := mustBuild(isa.NewBuilder("br").
		Li(isa.R1, 5).
		Label("loop").
		Beq(isa.R1, isa.R0, "done"). // 6 executions, 1 taken
		Addi(isa.R1, isa.R1, -1).
		Jmp("loop"). // 5 executions, all taken
		Label("done").
		Halt())
	ctr, err := v.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Branches != 11 {
		t.Errorf("branches = %d, want 11", ctr.Branches)
	}
	if ctr.BranchesTaken != 6 {
		t.Errorf("taken = %d, want 6", ctr.BranchesTaken)
	}
}

func TestDivByZeroIsTrapFree(t *testing.T) {
	v := MustNew(64, nil)
	p := mustBuild(isa.NewBuilder("div0").
		Li(isa.R1, 7).
		Div(isa.R2, isa.R1, isa.R0).
		Rem(isa.R3, isa.R1, isa.R0).
		Itof(isa.F1, isa.R1).
		Fdiv(isa.F2, isa.F1, isa.F3). // F3 == 0
		Halt())
	if _, err := v.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	if v.Regs[isa.R2] != 0 || v.Regs[isa.R3] != 0 || v.FRegs[isa.F2] != 0 {
		t.Error("division by zero did not yield zero")
	}
}

func TestOutOfRangeAccessErrors(t *testing.T) {
	cases := []*isa.Program{
		mustBuild(isa.NewBuilder("lw").Li(isa.R1, 1<<20).Lw(isa.R2, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("sw").Li(isa.R1, 1<<20).Sw(isa.R2, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("flw").Li(isa.R1, 1<<20).Flw(isa.F1, isa.R1, 0).Halt()),
	}
	for _, p := range cases {
		v := MustNew(64, nil)
		if _, err := v.Run(p, 0); err == nil {
			t.Errorf("program %q: out-of-range access did not error", p.Name)
		}
	}
}

// TestRunRejectsFallThrough: a program whose last instruction can fall
// through must fail validation, not index past its end.
func TestRunRejectsFallThrough(t *testing.T) {
	p := &isa.Program{Name: "open", Instrs: []isa.Instr{{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R1, Imm: 1}}}
	if _, err := MustNew(64, nil).Run(p, 100); err == nil {
		t.Fatal("program without a final halt ran")
	}
}

func TestBudgetExceeded(t *testing.T) {
	v := MustNew(64, nil)
	p := mustBuild(isa.NewBuilder("spin").Label("x").Jmp("x"))
	_, err := v.Run(p, 1000)
	var eb ErrBudget
	if !errors.As(err, &eb) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if !strings.Contains(eb.Error(), "spin") {
		t.Errorf("error does not name program: %v", eb)
	}
}

func TestCycleModelCharges(t *testing.T) {
	v := MustNew(64, nil)
	p := mustBuild(isa.NewBuilder("cyc").
		Mul(isa.R1, isa.R2, isa.R3).  // 3
		Div(isa.R1, isa.R2, isa.R3).  // 10
		Fdiv(isa.F1, isa.F2, isa.F3). // 12
		Add(isa.R1, isa.R2, isa.R3).  // 1
		Halt())                       // 1
	ctr, err := v.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 + 10 + 12 + 1 + 1); ctr.Cycles != want {
		t.Errorf("cycles = %d, want %d", ctr.Cycles, want)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(-5, nil); err == nil {
		t.Error("New(-5) succeeded")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{}
	tr.Access(0, false)
	tr.Access(64, true)
	tr.Access(65, false)
	if tr.Reads() != 2 || tr.Writes() != 1 {
		t.Errorf("reads/writes = %d/%d", tr.Reads(), tr.Writes())
	}
	if got := tr.Footprint(64); got != 2 {
		t.Errorf("Footprint(64) = %d, want 2", got)
	}
	if got := tr.Footprint(0); got != 0 {
		t.Errorf("Footprint(0) = %d, want 0", got)
	}
	// Replay must deliver identical stream.
	var out Trace
	tr.Replay(&out)
	if out.Len() != tr.Len() {
		t.Errorf("replay len %d != %d", out.Len(), tr.Len())
	}
	for i := range out.Accesses {
		if out.Accesses[i] != tr.Accesses[i] {
			t.Errorf("replay[%d] differs", i)
		}
	}
}

func TestTeeSinkDuplicates(t *testing.T) {
	var a, b Trace
	tee := TeeSink{A: &a, B: &b}
	tee.Access(10, true)
	tee.Access(20, false)
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("tee lens %d/%d", a.Len(), b.Len())
	}
}

func TestDeterministicReRun(t *testing.T) {
	run := func() (Counters, int64) {
		v := MustNew(1024, nil)
		for i := 0; i < 16; i++ {
			_ = v.PokeWord(uint64(i*4), int32(3*i+1))
		}
		ctr, err := v.Run(sumProgram(0, 16), 0)
		if err != nil {
			t.Fatal(err)
		}
		return ctr, v.Regs[isa.R5]
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Error("identical runs diverged")
	}
}
