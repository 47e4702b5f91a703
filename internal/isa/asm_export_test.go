package isa

// Test-only API: the text assembler, whose syntax is Disassemble's output
// plus labels and comments. No program reads it; the tests and FuzzAssemble
// use it to write programs as text.

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses textual assembly into a Program. The syntax is exactly
// what Program.Disassemble emits, plus labels and comments, so any
// disassembled program reassembles to an identical instruction stream:
//
//	; comment            (also "#")
//	start:               label definition
//	    li   r1, 42
//	    lw   r2, 8(r1)
//	    sw   r2, 12(r1)
//	    flw  f1, 0(r1)
//	    fadd f1, f1, f2
//	    beq  r1, r2, start   ; branch to a label...
//	    bne  r1, r2, @7      ; ...or to an absolute instruction index
//	    halt
//
// Register operands are written r0..r31 and f0..f15; immediates are
// decimal or 0x-hex.
func Assemble(name, src string) (*Program, error) {
	type pending struct {
		instr int
		label string
		line  int
	}
	var (
		instrs []Instr
		labels = map[string]int{}
		fixups []pending
	)

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels: one or more "name:" prefixes on the line.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if !validLabel(label) {
				return nil, asmErr(name, lineNo, "invalid label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, asmErr(name, lineNo, "label %q redefined", label)
			}
			labels[label] = len(instrs)
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}

		mnemonic, rest := splitMnemonic(line)
		ops := splitOperands(rest)
		in, labelRef, err := parseInstr(mnemonic, ops)
		if err != nil {
			return nil, asmErr(name, lineNo, "%v", err)
		}
		if labelRef != "" {
			if strings.HasPrefix(labelRef, "@") {
				target, err := strconv.Atoi(labelRef[1:])
				if err != nil {
					return nil, asmErr(name, lineNo, "bad absolute target %q", labelRef)
				}
				in.Target = target
			} else {
				fixups = append(fixups, pending{instr: len(instrs), label: labelRef, line: lineNo})
			}
		}
		instrs = append(instrs, in)
	}

	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, asmErr(name, f.line, "undefined label %q", f.label)
		}
		instrs[f.instr].Target = target
	}
	p := &Program{Name: name, Instrs: instrs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func asmErr(name string, line int, format string, args ...interface{}) error {
	return fmt.Errorf("isa: %s:%d: %s", name, line+1, fmt.Sprintf(format, args...))
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		return line[:i]
	}
	return line
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitMnemonic(line string) (string, string) {
	for i, c := range line {
		if c == ' ' || c == '\t' {
			return strings.ToLower(line[:i]), line[i+1:]
		}
	}
	return strings.ToLower(line), ""
}

func splitOperands(rest string) []string {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// mnemonicOps maps each mnemonic to its opcode and operand shape.
type opShape int

const (
	shapeNone     opShape = iota // halt, nop
	shapeRRR                     // add r1, r2, r3
	shapeRRI                     // addi r1, r2, 5
	shapeRI                      // li r1, 42
	shapeMemLoad                 // lw r1, 8(r2) / flw f1, 8(r2)
	shapeMemStore                // sw r2, 8(r1) / fsw f1, 8(r1)
	shapeBranchRR                // beq r1, r2, label
	shapeBranchFF                // fblt f1, f2, label
	shapeJump                    // jmp label
	shapeFFF                     // fadd f1, f2, f3
	shapeFF                      // fmov f1, f2
	shapeFR                      // itof f1, r2
	shapeRF                      // ftoi r1, f2
)

var mnemonics = map[string]struct {
	op    Op
	shape opShape
}{
	"nop": {NOP, shapeNone}, "halt": {HALT, shapeNone},
	"add": {ADD, shapeRRR}, "sub": {SUB, shapeRRR}, "mul": {MUL, shapeRRR},
	"div": {DIV, shapeRRR}, "rem": {REM, shapeRRR}, "and": {AND, shapeRRR},
	"or": {OR, shapeRRR}, "xor": {XOR, shapeRRR}, "shl": {SHL, shapeRRR},
	"shr":  {SHR, shapeRRR},
	"addi": {ADDI, shapeRRI}, "andi": {ANDI, shapeRRI}, "ori": {ORI, shapeRRI},
	"xori": {XORI, shapeRRI}, "shli": {SHLI, shapeRRI}, "shri": {SHRI, shapeRRI},
	"li": {LI, shapeRI},
	"lw": {LW, shapeMemLoad}, "lb": {LB, shapeMemLoad}, "flw": {FLW, shapeMemLoad},
	"sw": {SW, shapeMemStore}, "sb": {SB, shapeMemStore}, "fsw": {FSW, shapeMemStore},
	"beq": {BEQ, shapeBranchRR}, "bne": {BNE, shapeBranchRR},
	"blt": {BLT, shapeBranchRR}, "bge": {BGE, shapeBranchRR},
	"fblt": {FBLT, shapeBranchFF}, "fbge": {FBGE, shapeBranchFF},
	"jmp":  {JMP, shapeJump},
	"fadd": {FADD, shapeFFF}, "fsub": {FSUB, shapeFFF},
	"fmul": {FMUL, shapeFFF}, "fdiv": {FDIV, shapeFFF},
	"fmov": {FMOV, shapeFF},
	"itof": {ITOF, shapeFR}, "ftoi": {FTOI, shapeRF},
}

func parseInstr(mnemonic string, ops []string) (Instr, string, error) {
	m, ok := mnemonics[mnemonic]
	if !ok {
		return Instr{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in := Instr{Op: m.op}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}
	var err error
	switch m.shape {
	case shapeNone:
		return in, "", need(0)
	case shapeRRR:
		if err = need(3); err != nil {
			return in, "", err
		}
		if in.Rd, err = parseReg(ops[0]); err == nil {
			if in.Rs1, err = parseReg(ops[1]); err == nil {
				in.Rs2, err = parseReg(ops[2])
			}
		}
		return in, "", err
	case shapeRRI:
		if err = need(3); err != nil {
			return in, "", err
		}
		if in.Rd, err = parseReg(ops[0]); err == nil {
			if in.Rs1, err = parseReg(ops[1]); err == nil {
				in.Imm, err = parseImm(ops[2])
			}
		}
		return in, "", err
	case shapeRI:
		if err = need(2); err != nil {
			return in, "", err
		}
		if in.Rd, err = parseReg(ops[0]); err == nil {
			in.Imm, err = parseImm(ops[1])
		}
		return in, "", err
	case shapeMemLoad:
		if err = need(2); err != nil {
			return in, "", err
		}
		if m.op == FLW {
			if in.Fd, err = parseFReg(ops[0]); err != nil {
				return in, "", err
			}
		} else {
			if in.Rd, err = parseReg(ops[0]); err != nil {
				return in, "", err
			}
		}
		in.Imm, in.Rs1, err = parseMem(ops[1])
		return in, "", err
	case shapeMemStore:
		if err = need(2); err != nil {
			return in, "", err
		}
		if m.op == FSW {
			if in.Fs1, err = parseFReg(ops[0]); err != nil {
				return in, "", err
			}
		} else {
			if in.Rs2, err = parseReg(ops[0]); err != nil {
				return in, "", err
			}
		}
		in.Imm, in.Rs1, err = parseMem(ops[1])
		return in, "", err
	case shapeBranchRR:
		if err = need(3); err != nil {
			return in, "", err
		}
		if in.Rs1, err = parseReg(ops[0]); err != nil {
			return in, "", err
		}
		if in.Rs2, err = parseReg(ops[1]); err != nil {
			return in, "", err
		}
		return in, ops[2], nil
	case shapeBranchFF:
		if err = need(3); err != nil {
			return in, "", err
		}
		if in.Fs1, err = parseFReg(ops[0]); err != nil {
			return in, "", err
		}
		if in.Fs2, err = parseFReg(ops[1]); err != nil {
			return in, "", err
		}
		return in, ops[2], nil
	case shapeJump:
		if err = need(1); err != nil {
			return in, "", err
		}
		return in, ops[0], nil
	case shapeFFF:
		if err = need(3); err != nil {
			return in, "", err
		}
		if in.Fd, err = parseFReg(ops[0]); err == nil {
			if in.Fs1, err = parseFReg(ops[1]); err == nil {
				in.Fs2, err = parseFReg(ops[2])
			}
		}
		return in, "", err
	case shapeFF:
		if err = need(2); err != nil {
			return in, "", err
		}
		if in.Fd, err = parseFReg(ops[0]); err == nil {
			in.Fs1, err = parseFReg(ops[1])
		}
		return in, "", err
	case shapeFR:
		if err = need(2); err != nil {
			return in, "", err
		}
		if in.Fd, err = parseFReg(ops[0]); err == nil {
			in.Rs1, err = parseReg(ops[1])
		}
		return in, "", err
	case shapeRF:
		if err = need(2); err != nil {
			return in, "", err
		}
		if in.Rd, err = parseReg(ops[0]); err == nil {
			in.Fs1, err = parseFReg(ops[1])
		}
		return in, "", err
	}
	return in, "", fmt.Errorf("unhandled shape for %q", mnemonic)
}

func parseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parseFReg(s string) (FReg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "f") {
		return 0, fmt.Errorf("bad fp register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumFRegs {
		return 0, fmt.Errorf("bad fp register %q", s)
	}
	return FReg(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "imm(rN)".
func parseMem(s string) (int64, Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q (want imm(rN))", s)
	}
	imm, err := parseImm(s[:open])
	if err != nil {
		return 0, 0, err
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}
