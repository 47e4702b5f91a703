package isa

import (
	"strings"
	"testing"
)

func TestAssembleBasicProgram(t *testing.T) {
	src := `
		; sum integers 1..10
		li   r1, 0        # acc
		li   r2, 1        # i
		li   r3, 10
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		bge  r3, r2, loop
		halt
	`
	p, err := Assemble("sum", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("assembled %d instructions, want 7:\n%s", p.Len(), p.Disassemble())
	}
	if p.Instrs[5].Op != BGE || p.Instrs[5].Target != 3 {
		t.Errorf("branch target %d, want 3", p.Instrs[5].Target)
	}
}

func TestAssembleAllShapes(t *testing.T) {
	src := `
		nop
		li   r1, 0x10
		add  r2, r1, r1
		addi r3, r2, -5
		lw   r4, 8(r1)
		sw   r4, 12(r1)
		lb   r5, 0(r1)
		sb   r5, 1(r1)
		flw  f1, 16(r1)
		fsw  f1, 24(r1)
		fadd f2, f1, f1
		fmov f3, f2
		itof f4, r2
		ftoi r6, f4
		beq  r1, r2, end
		fblt f1, f2, end
		jmp  end
	end:
		halt
	`
	p, err := Assemble("shapes", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Imm != 0x10 {
		t.Errorf("hex immediate parsed as %d", p.Instrs[1].Imm)
	}
	if p.Instrs[4].Op != LW || p.Instrs[4].Imm != 8 || p.Instrs[4].Rs1 != R1 {
		t.Errorf("lw parsed as %+v", p.Instrs[4])
	}
	if p.Instrs[5].Op != SW || p.Instrs[5].Rs2 != R4 {
		t.Errorf("sw parsed as %+v", p.Instrs[5])
	}
	for _, idx := range []int{14, 15, 16} {
		if p.Instrs[idx].Target != 17 {
			t.Errorf("instr %d target %d, want 17", idx, p.Instrs[idx].Target)
		}
	}
}

// The assembler must accept exactly what the disassembler emits: for every
// benchmark-style program, asm(disasm(p)) == p.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p := NewBuilder("rt").
		Li(R1, 100).
		Li(R2, 0).
		Label("loop").
		Lw(R3, R1, 4).
		Flw(F1, R1, 8).
		Fmul(F2, F1, F1).
		Fsw(F2, R1, 16).
		Sb(R3, R1, 2).
		Rem(R4, R3, R1).
		Shri(R5, R4, 3).
		Bne(R2, R0, "loop").
		Fbge(F1, F2, "loop").
		Jmp("end").
		Label("end").
		Halt().
		MustBuild()
	src := p.Disassemble()
	// The disassembler prefixes "NNNN:" indices; strip them but keep
	// branch "@N" targets, which the assembler accepts directly.
	var lines []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		lines = append(lines, line)
	}
	got, err := Assemble("rt", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, src)
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

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":  "frobnicate r1, r2",
		"bad register":      "add r1, r2, r99",
		"bad fp register":   "fadd f1, f2, f99",
		"bad operand count": "add r1, r2",
		"bad immediate":     "li r1, banana",
		"bad memory":        "lw r1, r2",
		"undefined label":   "jmp nowhere\nhalt",
		"duplicate label":   "x:\nnop\nx:\nhalt",
		"invalid label":     "9lives:\nhalt",
		"bad abs target":    "jmp @banana\nhalt",
		"out of range abs":  "jmp @99\nhalt",
	}
	for name, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("%s: assembled without error:\n%s", name, src)
		}
	}
}

func TestAssembleEmptyAndCommentsOnly(t *testing.T) {
	if _, err := Assemble("empty", "; nothing here\n\n# still nothing"); err == nil {
		t.Error("empty program assembled (must fail validation)")
	}
}

func TestAssembledProgramExecutes(t *testing.T) {
	// End-to-end: assemble and run on the VM via the eembc-independent
	// path (validated by the vm package tests; here we just check the
	// structure executes deterministically through Validate).
	src := `
		li r1, 6
		li r2, 7
		mul r3, r1, r2
		halt
	`
	p, err := Assemble("mul", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Instrs[2].Op != MUL {
		t.Errorf("parsed %v", p.Instrs[2])
	}
}

func BenchmarkAssemble(b *testing.B) {
	src := `
		li   r1, 0
		li   r2, 1
		li   r3, 1000
	loop:
		add  r1, r1, r2
		lw   r4, 0(r1)
		sw   r4, 4(r1)
		addi r2, r2, 1
		bge  r3, r2, loop
		halt
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}
