package vm

import (
	"testing"

	"hetsched/internal/isa"
)

// mustBuild is Build for statically known-good programs; it panics on error.
func mustBuild(b *isa.Builder) *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// program is a straight-line program of ins followed by HALT, for the
// opcodes no kernel emits and so no Builder method spells.
func program(name string, ins ...isa.Instr) *isa.Program {
	return &isa.Program{Name: name, Instrs: append(ins, isa.Instr{Op: isa.HALT})}
}

// runProg executes a fresh program on a small VM and returns it for
// register inspection.
func runProg(t *testing.T, p *isa.Program) *VM {
	t.Helper()
	v := MustNew(4096, nil)
	if _, err := v.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestIntegerALUSemantics(t *testing.T) {
	rrr := func(op isa.Op, rd, rs1, rs2 isa.Reg) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
	}
	rri := func(op isa.Op, rd, rs1 isa.Reg, imm int64) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm}
	}
	p := program("alu",
		isa.Instr{Op: isa.LI, Rd: isa.R1, Imm: 13},
		isa.Instr{Op: isa.LI, Rd: isa.R2, Imm: 5},
		rrr(isa.SUB, isa.R3, isa.R1, isa.R2),   // 8
		rrr(isa.MUL, isa.R4, isa.R1, isa.R2),   // 65
		rrr(isa.DIV, isa.R5, isa.R1, isa.R2),   // 2
		rrr(isa.REM, isa.R6, isa.R1, isa.R2),   // 3
		rrr(isa.AND, isa.R7, isa.R1, isa.R2),   // 5
		rrr(isa.OR, isa.R8, isa.R1, isa.R2),    // 13
		rrr(isa.XOR, isa.R9, isa.R1, isa.R2),   // 8
		rrr(isa.SHL, isa.R10, isa.R1, isa.R2),  // 13<<5 = 416
		rrr(isa.SHR, isa.R11, isa.R10, isa.R2), // 416>>5 = 13
		rri(isa.ANDI, isa.R12, isa.R1, 6),      // 4
		rri(isa.ORI, isa.R13, isa.R1, 2),       // 15
		rri(isa.XORI, isa.R14, isa.R1, 1),      // 12
		rri(isa.SHLI, isa.R15, isa.R2, 2),      // 20
		rri(isa.SHRI, isa.R16, isa.R1, 1),      // 6
	)
	v := runProg(t, p)
	want := map[isa.Reg]int64{
		isa.R3: 8, isa.R4: 65, isa.R5: 2, isa.R6: 3,
		isa.R7: 5, isa.R8: 13, isa.R9: 8, isa.R10: 416, isa.R11: 13,
		isa.R12: 4, isa.R13: 15, isa.R14: 12, isa.R15: 20, isa.R16: 6,
	}
	for r, w := range want {
		if v.Regs[r] != w {
			t.Errorf("r%d = %d, want %d", r, v.Regs[r], w)
		}
	}
}

func TestByteLoadSignExtends(t *testing.T) {
	v := MustNew(64, nil)
	if err := v.PokeByte(10, 0xFF); err != nil {
		t.Fatal(err)
	}
	p := mustBuild(isa.NewBuilder("lb").
		Lb(isa.R1, isa.R0, 10).
		Halt())
	if _, err := v.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	if v.Regs[isa.R1] != -1 {
		t.Errorf("lb 0xFF = %d, want -1 (sign extension)", v.Regs[isa.R1])
	}
}

func TestStoreByteTruncates(t *testing.T) {
	v := MustNew(64, nil)
	p := mustBuild(isa.NewBuilder("sb").
		Li(isa.R1, 0x1234).
		Sb(isa.R1, isa.R0, 5).
		Lb(isa.R2, isa.R0, 5).
		Halt())
	if _, err := v.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	if v.Regs[isa.R2] != 0x34 {
		t.Errorf("sb/lb round trip = %#x, want 0x34", v.Regs[isa.R2])
	}
}

func TestFPConversionsAndCompares(t *testing.T) {
	p := mustBuild(isa.NewBuilder("fpc").
		Li(isa.R1, -7).
		Itof(isa.F1, isa.R1). // -7.0
		Li(isa.R3, 3).
		Itof(isa.F2, isa.R3).         // 3.0
		Fsub(isa.F3, isa.F2, isa.F1). // 10.0
		Fdiv(isa.F4, isa.F3, isa.F2). // 10/3
		Fmov(isa.F5, isa.F4).
		Li(isa.R4, 0).
		Fblt(isa.F1, isa.F2, "lt"). // -7 < 3: taken
		Li(isa.R4, 99).
		Label("lt").
		Li(isa.R5, 0).
		Fbge(isa.F2, isa.F1, "ge"). // 3 >= -7: taken
		Li(isa.R5, 99).
		Label("ge").
		Halt())
	v := runProg(t, p)
	ftoi := runProg(t, program("ftoi",
		isa.Instr{Op: isa.LI, Rd: isa.R1, Imm: -7},
		isa.Instr{Op: isa.ITOF, Fd: isa.F1, Rs1: isa.R1},
		isa.Instr{Op: isa.FTOI, Rd: isa.R2, Fs1: isa.F1},
	))
	if ftoi.Regs[isa.R2] != -7 {
		t.Errorf("ftoi(itof(-7)) = %d", ftoi.Regs[isa.R2])
	}
	if v.Regs[isa.R4] != 0 || v.Regs[isa.R5] != 0 {
		t.Errorf("fp branches not taken: r4=%d r5=%d", v.Regs[isa.R4], v.Regs[isa.R5])
	}
	if v.FRegs[isa.F5] != 10.0/3.0 {
		t.Errorf("f5 = %v", v.FRegs[isa.F5])
	}
}

func TestBranchSemantics(t *testing.T) {
	// Exercise the not-taken side of every branch.
	p := mustBuild(isa.NewBuilder("br").
		Li(isa.R1, 1).
		Li(isa.R2, 2).
		Li(isa.R9, 0).
		Beq(isa.R1, isa.R2, "bad"). // not taken
		Bne(isa.R1, isa.R1, "bad"). // not taken
		Blt(isa.R2, isa.R1, "bad"). // not taken
		Bge(isa.R1, isa.R2, "bad"). // not taken
		Itof(isa.F1, isa.R1).
		Itof(isa.F2, isa.R2).
		Fblt(isa.F2, isa.F1, "bad"). // not taken
		Fbge(isa.F1, isa.F2, "bad"). // not taken
		Li(isa.R9, 7).
		Jmp("end").
		Label("bad").
		Li(isa.R9, -1).
		Label("end").
		Halt())
	v := runProg(t, p)
	if v.Regs[isa.R9] != 7 {
		t.Errorf("branch fallthrough chain broken: r9 = %d", v.Regs[isa.R9])
	}
}

func TestNopAndSinkSwap(t *testing.T) {
	v := MustNew(64, nil)
	p := program("nop", isa.Instr{Op: isa.NOP}, isa.Instr{Op: isa.NOP})
	ctr, err := v.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Instructions != 3 {
		t.Errorf("instructions = %d", ctr.Instructions)
	}
	// SetSink(nil) must install the null sink, not nil-panic.
	v.SetSink(nil)
	v.ResetCounters()
	if v.Counters().Instructions != 0 {
		t.Error("ResetCounters did not zero")
	}
	p2 := mustBuild(isa.NewBuilder("st").Sw(isa.R0, isa.R0, 0).Halt())
	if _, err := v.Run(p2, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMemHelperBounds(t *testing.T) {
	v := MustNew(16, nil)
	if err := v.PokeWord(14, 1); err == nil {
		t.Error("PokeWord past end accepted")
	}
	if _, err := v.PeekWord(14); err == nil {
		t.Error("PeekWord past end accepted")
	}
	if err := v.PokeFloat(9, 1); err == nil {
		t.Error("PokeFloat past end accepted")
	}
	if _, err := v.PeekFloat(9); err == nil {
		t.Error("PeekFloat past end accepted")
	}
	if err := v.PokeByte(16, 1); err == nil {
		t.Error("PokeByte past end accepted")
	}
	if err := v.PokeWord(^uint64(0)-1, 1); err == nil {
		t.Error("PokeWord at a wrapping address accepted")
	}
	if err := v.PokeFloat(^uint64(0)-3, 1); err == nil {
		t.Error("PokeFloat at a wrapping address accepted")
	}
	if v.MemSize() != 16 {
		t.Errorf("MemSize = %d", v.MemSize())
	}
}

func TestOutOfRangeByteOps(t *testing.T) {
	for _, build := range []func() *isa.Program{
		func() *isa.Program {
			return mustBuild(isa.NewBuilder("lb").Li(isa.R1, 1<<20).Lb(isa.R2, isa.R1, 0).Halt())
		},
		func() *isa.Program {
			return mustBuild(isa.NewBuilder("sb").Li(isa.R1, 1<<20).Sb(isa.R2, isa.R1, 0).Halt())
		},
		func() *isa.Program {
			return mustBuild(isa.NewBuilder("fsw").Li(isa.R1, 1<<20).Fsw(isa.F1, isa.R1, 0).Halt())
		},
	} {
		v := MustNew(64, nil)
		if _, err := v.Run(build(), 0); err == nil {
			t.Error("out-of-range access did not error")
		}
	}
}

// TestNegativeAddressErrors: an effective address just below zero wraps to
// within a word of 2^64, where addr+width overflows; the access must fail
// cleanly instead of slicing out of range.
func TestNegativeAddressErrors(t *testing.T) {
	for _, p := range []*isa.Program{
		mustBuild(isa.NewBuilder("lw").Li(isa.R1, -1).Lw(isa.R2, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("sw").Li(isa.R1, -2).Sw(isa.R2, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("flw").Li(isa.R1, -4).Flw(isa.F1, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("fsw").Li(isa.R1, -7).Fsw(isa.F1, isa.R1, 0).Halt()),
		mustBuild(isa.NewBuilder("lb").Li(isa.R1, -1).Lb(isa.R2, isa.R1, 0).Halt()),
	} {
		if _, err := MustNew(64, nil).Run(p, 0); err == nil {
			t.Errorf("program %q: negative address did not error", p.Name)
		}
	}
}
