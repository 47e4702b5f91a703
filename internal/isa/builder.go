package isa

import "fmt"

// Builder assembles a Program with symbolic labels. Branch instructions name
// labels; Build resolves them to instruction indices. The zero Builder is not
// usable; construct with NewBuilder.
type Builder struct {
	name   string
	instrs []Instr
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	instr int
	label string
}

// NewBuilder starts a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: map[string]int{}}
}

// Label defines a label at the current position. Redefinition is an error
// reported by Build.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: label %q redefined", name))
		return b
	}
	b.labels[name] = len(b.instrs)
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

func (b *Builder) emitBranch(in Instr, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instr: len(b.instrs), label: label})
	return b.emit(in)
}

// Halt appends program termination.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: HALT}) }

// Add appends rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: ADD, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub appends rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SUB, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul appends rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: MUL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div appends rd = rs1 / rs2 (trap-free: division by zero yields 0).
func (b *Builder) Div(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: DIV, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem appends rd = rs1 % rs2 (by-zero yields 0).
func (b *Builder) Rem(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: REM, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or appends rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: OR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor appends rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: XOR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Addi appends rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi appends rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori appends rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shli appends rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SHLI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri appends rd = rs1 >> imm (arithmetic).
func (b *Builder) Shri(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SHRI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li appends rd = imm.
func (b *Builder) Li(rd Reg, imm int64) *Builder {
	return b.emit(Instr{Op: LI, Rd: rd, Imm: imm})
}

// Lw appends rd = mem32[rs1+imm].
func (b *Builder) Lw(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: LW, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sw appends mem32[rs1+imm] = rs2.
func (b *Builder) Sw(rs2, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SW, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// Lb appends rd = mem8[rs1+imm] (sign-extended).
func (b *Builder) Lb(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: LB, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sb appends mem8[rs1+imm] = rs2.
func (b *Builder) Sb(rs2, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SB, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// Flw appends fd = mem64f[rs1+imm].
func (b *Builder) Flw(fd FReg, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: FLW, Fd: fd, Rs1: rs1, Imm: imm})
}

// Fsw appends mem64f[rs1+imm] = fs1.
func (b *Builder) Fsw(fs1 FReg, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: FSW, Fs1: fs1, Rs1: rs1, Imm: imm})
}

// Beq appends a branch to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: BEQ, Rs1: rs1, Rs2: rs2}, label)
}

// Bne appends a branch to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: BNE, Rs1: rs1, Rs2: rs2}, label)
}

// Blt appends a branch to label when rs1 < rs2.
func (b *Builder) Blt(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: BLT, Rs1: rs1, Rs2: rs2}, label)
}

// Bge appends a branch to label when rs1 >= rs2.
func (b *Builder) Bge(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: BGE, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp appends an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitBranch(Instr{Op: JMP}, label)
}

// Fadd appends fd = fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 FReg) *Builder {
	return b.emit(Instr{Op: FADD, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fsub appends fd = fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 FReg) *Builder {
	return b.emit(Instr{Op: FSUB, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fmul appends fd = fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 FReg) *Builder {
	return b.emit(Instr{Op: FMUL, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fdiv appends fd = fs1 / fs2 (by-zero yields 0).
func (b *Builder) Fdiv(fd, fs1, fs2 FReg) *Builder {
	return b.emit(Instr{Op: FDIV, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fmov appends fd = fs1.
func (b *Builder) Fmov(fd, fs1 FReg) *Builder {
	return b.emit(Instr{Op: FMOV, Fd: fd, Fs1: fs1})
}

// Itof appends fd = float64(rs1).
func (b *Builder) Itof(fd FReg, rs1 Reg) *Builder {
	return b.emit(Instr{Op: ITOF, Fd: fd, Rs1: rs1})
}

// Fblt appends a branch to label when fs1 < fs2.
func (b *Builder) Fblt(fs1, fs2 FReg, label string) *Builder {
	return b.emitBranch(Instr{Op: FBLT, Fs1: fs1, Fs2: fs2}, label)
}

// Fbge appends a branch to label when fs1 >= fs2.
func (b *Builder) Fbge(fs1, fs2 FReg, label string) *Builder {
	return b.emitBranch(Instr{Op: FBGE, Fs1: fs1, Fs2: fs2}, label)
}

// Build resolves labels and validates the program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: undefined label %q", b.name, f.label)
		}
		b.instrs[f.instr].Target = idx
	}
	p := &Program{Name: b.name, Instrs: b.instrs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
