package isa

import (
	"strings"
	"testing"
)

func TestBuilderResolvesForwardAndBackwardLabels(t *testing.T) {
	p, err := NewBuilder("labels").
		Li(R1, 0).
		Label("loop").
		Addi(R1, R1, 1).
		Blt(R1, R2, "loop"). // backward
		Beq(R0, R0, "end").  // forward
		Nop().
		Label("end").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Instrs[2].Target; got != 1 {
		t.Errorf("backward target = %d, want 1", got)
	}
	if got := p.Instrs[3].Target; got != 5 {
		t.Errorf("forward target = %d, want 5", got)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder("bad").Jmp("nowhere").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("want undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	_, err := NewBuilder("dup").Label("x").Nop().Label("x").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("want redefined-label error, got %v", err)
	}
}

func TestValidateEmptyProgram(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Error("empty program validated")
	}
}

func TestValidateBadTarget(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{{Op: JMP, Target: 99}, {Op: HALT}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range target validated")
	}
}

func TestValidateFallThrough(t *testing.T) {
	for _, last := range []Instr{{Op: ADDI, Rd: 1, Rs1: 1, Imm: 1}, {Op: BEQ, Target: 0}, {Op: NOP}} {
		p := &Program{Name: "open", Instrs: []Instr{{Op: NOP}, last}}
		if err := p.Validate(); err == nil {
			t.Errorf("program ending in %s validated", last.Op)
		}
	}
	for _, last := range []Instr{{Op: HALT}, {Op: JMP, Target: 0}} {
		p := &Program{Name: "closed", Instrs: []Instr{{Op: NOP}, last}}
		if err := p.Validate(); err != nil {
			t.Errorf("program ending in %s: %v", last.Op, err)
		}
	}
}

func TestValidateBadRegister(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{{Op: ADD, Rd: 40}, {Op: HALT}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range register validated")
	}
}

func TestClassOfCoversAllOpcodes(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNop, HALT: ClassHalt,
		ADD: ClassIntALU, ADDI: ClassIntALU, LI: ClassIntALU, XORI: ClassIntALU,
		MUL: ClassMulDiv, DIV: ClassMulDiv, REM: ClassMulDiv,
		FADD: ClassFP, FDIV: ClassFP, ITOF: ClassFP, FTOI: ClassFP, FMOV: ClassFP,
		LW: ClassLoad, LB: ClassLoad, FLW: ClassLoad,
		SW: ClassStore, SB: ClassStore, FSW: ClassStore,
		BEQ: ClassBranch, JMP: ClassBranch, FBLT: ClassBranch, FBGE: ClassBranch,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestDisassembleFormats(t *testing.T) {
	p := NewBuilder("dis").
		Li(R1, 42).
		Lw(R2, R1, 8).
		Sw(R2, R1, 12).
		Fadd(F1, F2, F3).
		Flw(F4, R1, 0).
		Fsw(F4, R1, 8).
		Beq(R1, R2, "end").
		Label("end").
		Halt().
		MustBuild()
	dis := p.Disassemble()
	for _, want := range []string{
		"li r1, 42",
		"lw r2, 8(r1)",
		"sw r2, 12(r1)",
		"fadd f1, f2, f3",
		"flw f4, 0(r1)",
		"fsw f4, 8(r1)",
		"beq r1, r2, @7",
		"halt",
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestProgramMix(t *testing.T) {
	p := NewBuilder("mix").
		Li(R1, 1).
		Add(R2, R1, R1).
		Mul(R3, R2, R2).
		Lw(R4, R0, 0).
		Sw(R4, R0, 4).
		Fadd(F1, F2, F3).
		Beq(R1, R2, "end").
		Label("end").
		Halt().
		MustBuild()
	mix := p.Mix()
	want := map[Class]int{
		ClassIntALU: 2, ClassMulDiv: 1, ClassLoad: 1, ClassStore: 1,
		ClassFP: 1, ClassBranch: 1, ClassHalt: 1,
	}
	for class, n := range want {
		if mix[class] != n {
			t.Errorf("mix[%v] = %d, want %d", class, mix[class], n)
		}
	}
}

func TestOpStringUnknown(t *testing.T) {
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on undefined label")
		}
	}()
	NewBuilder("p").Jmp("nope").MustBuild()
}
