package isa

import "fmt"

// MustBuild is Build for statically known-good programs; panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders the whole program, one instruction per line with
// instruction indices, for debugging and golden tests.
func (p *Program) Disassemble() string {
	out := ""
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%4d: %s\n", i, in.String())
	}
	return out
}

// opNames are the mnemonics of the disassembler below.
var opNames = map[Op]string{
	NOP: "nop", HALT: "halt",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SHLI: "shli", SHRI: "shri", LI: "li",
	LW: "lw", SW: "sw", LB: "lb", SB: "sb", FLW: "flw", FSW: "fsw",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", JMP: "jmp",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FMOV: "fmov", ITOF: "itof", FTOI: "ftoi", FBLT: "fblt", FBGE: "fbge",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SHL, SHR:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case LI:
		return fmt.Sprintf("li r%d, %d", in.Rd, in.Imm)
	case LW, LB:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
	case SW, SB:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case FLW:
		return fmt.Sprintf("flw f%d, %d(r%d)", in.Fd, in.Imm, in.Rs1)
	case FSW:
		return fmt.Sprintf("fsw f%d, %d(r%d)", in.Fs1, in.Imm, in.Rs1)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs1, in.Rs2, in.Target)
	case JMP:
		return fmt.Sprintf("jmp @%d", in.Target)
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s f%d, f%d, f%d", in.Op, in.Fd, in.Fs1, in.Fs2)
	case FMOV:
		return fmt.Sprintf("fmov f%d, f%d", in.Fd, in.Fs1)
	case ITOF:
		return fmt.Sprintf("itof f%d, r%d", in.Fd, in.Rs1)
	case FTOI:
		return fmt.Sprintf("ftoi r%d, f%d", in.Rd, in.Fs1)
	case FBLT, FBGE:
		return fmt.Sprintf("%s f%d, f%d, @%d", in.Op, in.Fs1, in.Fs2, in.Target)
	}
	return in.Op.String()
}
