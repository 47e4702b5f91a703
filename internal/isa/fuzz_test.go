package isa_test

import (
	"testing"

	"hetsched/internal/isa"
	"hetsched/internal/vm"
)

// FuzzAssemble: the assembler must never panic, everything it accepts must
// validate and disassemble cleanly, and the VM must run it without panicking
// — to a halt or an error, within a small instruction budget.
func FuzzAssemble(f *testing.F) {
	f.Add("halt")
	f.Add("li r1, 42\nhalt")
	f.Add("loop:\naddi r1, r1, 1\nbne r1, r0, loop\nhalt")
	f.Add("lw r1, 8(r2)\nsw r1, 0(r2)\nhalt")
	f.Add("fadd f1, f2, f3\nfblt f1, f2, @0\nhalt")
	f.Add("; comment only")
	f.Add("x: y: z:\nhalt")
	f.Add("jmp @999")
	f.Add("li r1, 0x7fffffffffffffff\nhalt")
	f.Add("addi r1, r1, 1")           // falls off the end
	f.Add("li r1, 1\nbeq r1, r0, @0") // falls off the end when not taken
	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Assemble("fuzz", src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\n%s", err, src)
		}
		_ = p.Disassemble()
		m, err := vm.New(256, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = m.Run(p, 1000) // a budget or memory error is fine; a panic is not
	})
}

// instrBytes is the fuzz encoding of one instruction: opcode, the six
// register fields, an 8-bit signed immediate and a branch target.
const instrBytes = 9

func decode(data []byte) *isa.Program {
	p := &isa.Program{Name: "fuzz"}
	for ; len(data) >= instrBytes; data = data[instrBytes:] {
		p.Instrs = append(p.Instrs, isa.Instr{
			Op: isa.Op(data[0]),
			Rd: isa.Reg(data[1]), Rs1: isa.Reg(data[2]), Rs2: isa.Reg(data[3]),
			Fd: isa.FReg(data[4]), Fs1: isa.FReg(data[5]), Fs2: isa.FReg(data[6]),
			Imm:    int64(int8(data[7])),
			Target: int(data[8]),
		})
	}
	return p
}

func encode(p *isa.Program) []byte {
	var out []byte
	for _, in := range p.Instrs {
		out = append(out, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2),
			byte(in.Fd), byte(in.Fs1), byte(in.Fs2), byte(int8(in.Imm)), byte(in.Target))
	}
	return out
}

// FuzzProgram: every program Validate accepts disassembles cleanly, and the
// VM runs it without panicking — to a halt or an error, within a small
// instruction budget.
func FuzzProgram(f *testing.F) {
	for _, b := range []*isa.Builder{
		isa.NewBuilder("halt").Halt(),
		isa.NewBuilder("li").Li(isa.R1, 42).Halt(),
		isa.NewBuilder("loop").Label("loop").Addi(isa.R1, isa.R1, 1).Bne(isa.R1, isa.R0, "loop").Halt(),
		isa.NewBuilder("mem").Lw(isa.R1, isa.R2, 8).Sw(isa.R1, isa.R2, 0).Sb(isa.R1, isa.R2, -1).Halt(),
		isa.NewBuilder("fp").Label("top").Fadd(isa.F1, isa.F2, isa.F3).Fdiv(isa.F4, isa.F1, isa.F2).Fblt(isa.F1, isa.F2, "top").Halt(),
		isa.NewBuilder("div").Li(isa.R1, -128).Div(isa.R2, isa.R1, isa.R0).Rem(isa.R3, isa.R1, isa.R0).Halt(),
		isa.NewBuilder("spin").Label("x").Jmp("x"),
	} {
		p, err := b.Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encode(p))
	}
	f.Add([]byte{})
	f.Add(encode(&isa.Program{Instrs: []isa.Instr{{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R1, Imm: 1}}})) // falls off the end
	f.Add(encode(&isa.Program{Instrs: []isa.Instr{{Op: isa.JMP, Target: 200}}}))                      // target out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decode(data)
		if p.Validate() != nil {
			return
		}
		for _, in := range p.Instrs {
			_ = in.String()
		}
		m, err := vm.New(256, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = m.Run(p, 1000) // a budget or memory error is fine; a panic is not
	})
}
