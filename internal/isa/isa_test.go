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
		Li(R3, 0).
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
	_, err := NewBuilder("dup").Label("x").Halt().Label("x").Halt().Build()
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

// TestDisassembleFormats pins Instr.String, the disassembly the kernel
// tests print.
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
	for i, want := range []string{
		"li r1, 42",
		"lw r2, 8(r1)",
		"sw r2, 12(r1)",
		"fadd f1, f2, f3",
		"flw f4, 0(r1)",
		"fsw f4, 8(r1)",
		"beq r1, r2, @7",
		"halt",
	} {
		if got := p.Instrs[i].String(); got != want {
			t.Errorf("instr %d disassembles to %q, want %q", i, got, want)
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

// TestBuilderEveryMethod drives each builder method once, checks the
// opcode each one emits, and round-trips the result through the
// disassembler and assembler.
func TestBuilderEveryMethod(t *testing.T) {
	p := NewBuilder("all").
		Li(R1, 3).
		Add(R2, R1, R1).
		Sub(R3, R2, R1).
		Mul(R4, R2, R3).
		Div(R5, R4, R1).
		Rem(R6, R4, R2).
		Or(R8, R4, R2).
		Xor(R9, R4, R2).
		Addi(R12, R1, 4).
		Andi(R13, R12, 6).
		Ori(R14, R12, 1).
		Shli(R16, R1, 2).
		Shri(R17, R16, 1).
		Lw(R18, R0, 0).
		Sw(R18, R0, 4).
		Lb(R19, R0, 8).
		Sb(R19, R0, 9).
		Flw(F1, R0, 16).
		Fsw(F1, R0, 24).
		Fadd(F2, F1, F1).
		Fsub(F3, F2, F1).
		Fmul(F4, F2, F3).
		Fdiv(F5, F4, F2).
		Fmov(F6, F5).
		Itof(F7, R1).
		Beq(R1, R1, "end").
		Bne(R1, R2, "end").
		Blt(R1, R2, "end").
		Bge(R2, R1, "end").
		Fblt(F1, F2, "end").
		Fbge(F2, F1, "end").
		Jmp("end").
		Label("end").
		Halt().
		MustBuild()
	want := []Op{LI, ADD, SUB, MUL, DIV, REM, OR, XOR, ADDI, ANDI, ORI, SHLI, SHRI,
		LW, SW, LB, SB, FLW, FSW, FADD, FSUB, FMUL, FDIV, FMOV, ITOF,
		BEQ, BNE, BLT, BGE, FBLT, FBGE, JMP, HALT}
	if p.Len() != len(want) {
		t.Fatalf("built %d instrs, want %d", p.Len(), len(want))
	}
	for i, op := range want {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, p.Instrs[i].Op, op)
		}
	}
	if end := len(want) - 1; p.Instrs[end-1].Target != end {
		t.Errorf("jmp target %d, want %d", p.Instrs[end-1].Target, end)
	}
	// Disassemble, strip indices, reassemble, compare.
	var lines []string
	for _, line := range strings.Split(p.Disassemble(), "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		lines = append(lines, line)
	}
	got, err := Assemble("all", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != p.Len() {
		t.Fatalf("round trip %d instrs, want %d", got.Len(), p.Len())
	}
	for i := range p.Instrs {
		if got.Instrs[i] != p.Instrs[i] {
			t.Errorf("instr %d: %+v != %+v", i, got.Instrs[i], p.Instrs[i])
		}
	}
}
