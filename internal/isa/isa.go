// Package isa defines a small RISC-style instruction set, a label-resolving
// program builder and a disassembler. Together with internal/vm it replaces
// the paper's use of SimpleScalar: benchmarks are written as programs for
// this ISA, executed deterministically, and their data-memory accesses are
// streamed into the cache models while hardware counters record the
// execution statistics the ANN predictor consumes.
package isa

import "fmt"

// Reg names one of the 32 integer registers. R0 is hardwired to zero.
type Reg uint8

// Integer register aliases.
const (
	R0 Reg = iota // always zero
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// NumRegs is the integer register-file size.
const NumRegs = 32

// FReg names one of the 16 floating-point registers.
type FReg uint8

// Floating-point register aliases.
const (
	F0 FReg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
)

// NumFRegs is the floating-point register-file size.
const NumFRegs = 16

// Op is an instruction opcode.
type Op uint8

// Opcodes. The groups matter to the hardware counters: integer ALU,
// multiply/divide, floating point, memory, and control flow are counted
// separately, mirroring the execution statistics of Section IV.D.
const (
	NOP Op = iota
	HALT

	// Integer ALU (register-register).
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SHL
	SHR

	// Integer ALU (immediate).
	ADDI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	LI // load 32-bit immediate into Rd

	// Memory. Addresses are Rs1+Imm. LW/SW move 32-bit words between
	// integer registers and data memory; FLW/FSW move 64-bit floats.
	LW
	SW
	LB
	SB
	FLW
	FSW

	// Control flow. Targets are label-resolved instruction indices.
	BEQ
	BNE
	BLT
	BGE
	JMP

	// Floating point.
	FADD
	FSUB
	FMUL
	FDIV
	FMOV
	ITOF // Fd <- float64(Rs1)
	FTOI // Rd <- int64(Fs1)
	FBLT // branch if Fs1 < Fs2
	FBGE // branch if Fs1 >= Fs2

	opCount // sentinel
)

// Class groups opcodes for the hardware counters.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassMulDiv
	ClassFP
	ClassLoad
	ClassStore
	ClassBranch
	ClassHalt
)

// ClassOf returns the counter class of an opcode.
func ClassOf(o Op) Class {
	switch o {
	case NOP:
		return ClassNop
	case HALT:
		return ClassHalt
	case ADD, SUB, AND, OR, XOR, SHL, SHR,
		ADDI, ANDI, ORI, XORI, SHLI, SHRI, LI:
		return ClassIntALU
	case MUL, DIV, REM:
		return ClassMulDiv
	case FADD, FSUB, FMUL, FDIV, FMOV, ITOF, FTOI:
		return ClassFP
	case LW, LB, FLW:
		return ClassLoad
	case SW, SB, FSW:
		return ClassStore
	case BEQ, BNE, BLT, BGE, JMP, FBLT, FBGE:
		return ClassBranch
	}
	return ClassNop
}

// Instr is one decoded instruction. Fields are interpreted per opcode; unused
// fields are zero.
type Instr struct {
	Op           Op
	Rd, Rs1, Rs2 Reg
	Fd, Fs1, Fs2 FReg
	Imm          int64
	Target       int // branch/jump target, resolved by the builder
}

// Program is an executable sequence of instructions with resolved targets.
type Program struct {
	Name   string
	Instrs []Instr
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Mix returns the static instruction mix of the program by counter class —
// the compile-time complement to the VM's dynamic counters.
func (p *Program) Mix() map[Class]int {
	mix := map[Class]int{}
	for _, in := range p.Instrs {
		mix[ClassOf(in.Op)]++
	}
	return mix
}

// Validate checks structural invariants: all branch targets in range, HALT
// reachable as the final fall-through, register indices in range. The last
// instruction must be HALT or JMP, the only two that never fall through:
// execution could otherwise run off the end of the program.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	if last := p.Instrs[len(p.Instrs)-1].Op; last != HALT && last != JMP {
		return fmt.Errorf("isa: %q falls through its last instruction (opcode %d): end it with halt or jmp", p.Name, last)
	}
	for i, in := range p.Instrs {
		if in.Op >= opCount {
			return fmt.Errorf("isa: %q instr %d: bad opcode %d", p.Name, i, in.Op)
		}
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return fmt.Errorf("isa: %q instr %d: register out of range", p.Name, i)
		}
		if in.Fd >= NumFRegs || in.Fs1 >= NumFRegs || in.Fs2 >= NumFRegs {
			return fmt.Errorf("isa: %q instr %d: fp register out of range", p.Name, i)
		}
		switch ClassOf(in.Op) {
		case ClassBranch:
			if in.Target < 0 || in.Target >= len(p.Instrs) {
				return fmt.Errorf("isa: %q instr %d: branch target %d out of range", p.Name, i, in.Target)
			}
		}
	}
	return nil
}
