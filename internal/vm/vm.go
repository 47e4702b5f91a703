// Package vm executes internal/isa programs deterministically, maintaining
// the hardware counters the paper's profiler reads and streaming every
// data-memory access to an attached sink (typically a cache hierarchy or a
// trace recorder). It stands in for SimpleScalar's sim-cache.
//
// The cycle model is in-order single-issue with a perfect L1: each
// instruction costs its class latency and memory stall cycles are charged
// afterwards by the Figure 4 energy model from per-configuration miss
// counts, exactly as the paper post-processes SimpleScalar statistics.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"hetsched/internal/isa"
)

// MemSink receives every data-memory access the program performs.
type MemSink interface {
	// Access is invoked once per memory instruction with the byte address
	// and direction.
	Access(addr uint64, write bool)
}

// NullSink discards accesses (pure counter runs).
type NullSink struct{}

// Access implements MemSink.
func (NullSink) Access(addr uint64, write bool) {}

// Counters are the raw hardware counters maintained during execution. These
// are the measurement substrate for the paper's 18 execution statistics.
type Counters struct {
	Instructions  uint64 // total committed instructions
	Cycles        uint64 // base cycles assuming a perfect L1
	Loads         uint64
	Stores        uint64
	LoadBytes     uint64
	StoreBytes    uint64
	Branches      uint64
	BranchesTaken uint64
	IntALU        uint64
	MulDiv        uint64
	FPOps         uint64
}

// MemOps returns loads+stores.
func (c Counters) MemOps() uint64 { return c.Loads + c.Stores }

// opLatency is the per-opcode cycle cost; branch-taken adds one redirect
// cycle. A 256-entry table indexed by the uint8 opcode replaces the old
// per-instruction switch: the dispatch loop pays one bounds-check-free load
// instead of a branch tree (opCycles was ~11% of characterization CPU).
var opLatency = func() [256]uint8 {
	var t [256]uint8
	for i := range t {
		t[i] = 1
	}
	t[isa.MUL] = 3
	t[isa.DIV], t[isa.REM] = 10, 10
	t[isa.FADD], t[isa.FSUB] = 2, 2
	t[isa.FMUL] = 4
	t[isa.FDIV] = 12
	t[isa.ITOF], t[isa.FTOI] = 2, 2
	return t
}()

// regMask and fregMask make register-file indexing bounds-check free: the
// masks are no-ops for every index Program.Validate admits (and Run only
// executes validated programs), but let the compiler prove the access is in
// range of the fixed-size register arrays.
const (
	regMask  = isa.NumRegs - 1
	fregMask = isa.NumFRegs - 1
)

// VM is a single-core execution engine. Construct with New, load data with
// the memory helpers, then Run.
type VM struct {
	Regs  [isa.NumRegs]int64
	FRegs [isa.NumFRegs]float64

	mem  []byte
	sink MemSink
	ctr  Counters
}

// New builds a VM with memBytes of zeroed data memory and the given sink.
// A nil sink is replaced by NullSink.
func New(memBytes int, sink MemSink) (*VM, error) {
	if memBytes <= 0 {
		return nil, fmt.Errorf("vm: memory size must be positive, got %d", memBytes)
	}
	if sink == nil {
		sink = NullSink{}
	}
	return &VM{mem: make([]byte, memBytes), sink: sink}, nil
}

// --- memory helpers (initialization; not counted as program accesses) ---

// PokeWord writes a 32-bit word during setup.
func (v *VM) PokeWord(addr uint64, val int32) error {
	if addr >= accessEnd(len(v.mem), 4) {
		return fmt.Errorf("vm: poke word at %#x out of range", addr)
	}
	binary.LittleEndian.PutUint32(v.mem[addr:], uint32(val))
	return nil
}

// PokeFloat writes a float64 during setup.
func (v *VM) PokeFloat(addr uint64, val float64) error {
	if addr >= accessEnd(len(v.mem), 8) {
		return fmt.Errorf("vm: poke float at %#x out of range", addr)
	}
	binary.LittleEndian.PutUint64(v.mem[addr:], floatBits(val))
	return nil
}

// PokeByte writes one byte during setup.
func (v *VM) PokeByte(addr uint64, val byte) error {
	if addr >= uint64(len(v.mem)) {
		return fmt.Errorf("vm: poke byte at %#x out of range", addr)
	}
	v.mem[addr] = val
	return nil
}

// --- execution ---

// ErrBudget is returned when Run exceeds its instruction budget, which
// indicates a runaway program (every benchmark must halt).
type ErrBudget struct {
	Program string
	Budget  uint64
}

func (e ErrBudget) Error() string {
	return fmt.Sprintf("vm: program %q exceeded budget of %d instructions", e.Program, e.Budget)
}

// Run executes the program from instruction 0 until HALT, returning the
// counters. maxInstr bounds execution (0 means a 500M-instruction default).
func (v *VM) Run(p *isa.Program, maxInstr uint64) (Counters, error) {
	if err := p.Validate(); err != nil {
		return v.ctr, err
	}
	if maxInstr == 0 {
		maxInstr = 500_000_000
	}
	// The dispatch loop keeps its hot state in locals — the counter struct,
	// the memory and instruction slices, and the sink — so the per-instruction
	// bookkeeping updates stack slots the compiler can keep registered instead
	// of re-loading VM fields it must assume aliased. Every exit path writes
	// the counters back.
	ctr := v.ctr
	mem := v.mem
	// end4 and end8 bound the start address of a word and a float access.
	// A negative effective address is a huge uint64 that addr+width would
	// wrap back into range, so the bound is on addr itself.
	end4, end8 := accessEnd(len(mem), 4), accessEnd(len(mem), 8)
	sink := v.sink
	// Devirtualize the streaming fast path: when the sink is a StreamSink
	// (the fused characterization engine), memory instructions push packed
	// accesses inline instead of paying an interface call each.
	ss, _ := sink.(*StreamSink)
	instrs := p.Instrs
	pc := 0
	for ctr.Instructions < maxInstr {
		in := &instrs[pc]
		ctr.Instructions++
		ctr.Cycles += uint64(opLatency[in.Op])
		next := pc + 1

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			v.ctr = ctr
			return ctr, nil

		case isa.ADD:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]+v.Regs[in.Rs2&regMask])
			ctr.IntALU++
		case isa.SUB:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]-v.Regs[in.Rs2&regMask])
			ctr.IntALU++
		case isa.MUL:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]*v.Regs[in.Rs2&regMask])
			ctr.MulDiv++
		case isa.DIV:
			v.setReg(in.Rd, safeDiv(v.Regs[in.Rs1&regMask], v.Regs[in.Rs2&regMask]))
			ctr.MulDiv++
		case isa.REM:
			v.setReg(in.Rd, safeRem(v.Regs[in.Rs1&regMask], v.Regs[in.Rs2&regMask]))
			ctr.MulDiv++
		case isa.AND:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]&v.Regs[in.Rs2&regMask])
			ctr.IntALU++
		case isa.OR:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]|v.Regs[in.Rs2&regMask])
			ctr.IntALU++
		case isa.XOR:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]^v.Regs[in.Rs2&regMask])
			ctr.IntALU++
		case isa.SHL:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]<<uint(v.Regs[in.Rs2&regMask]&63))
			ctr.IntALU++
		case isa.SHR:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]>>uint(v.Regs[in.Rs2&regMask]&63))
			ctr.IntALU++

		case isa.ADDI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]+in.Imm)
			ctr.IntALU++
		case isa.ANDI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]&in.Imm)
			ctr.IntALU++
		case isa.ORI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]|in.Imm)
			ctr.IntALU++
		case isa.XORI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]^in.Imm)
			ctr.IntALU++
		case isa.SHLI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]<<uint(in.Imm&63))
			ctr.IntALU++
		case isa.SHRI:
			v.setReg(in.Rd, v.Regs[in.Rs1&regMask]>>uint(in.Imm&63))
			ctr.IntALU++
		case isa.LI:
			v.setReg(in.Rd, in.Imm)
			ctr.IntALU++

		case isa.LW:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= end4 {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: load at %#x out of range", p.Name, pc, addr)
			}
			v.setReg(in.Rd, int64(int32(binary.LittleEndian.Uint32(mem[addr:]))))
			if ss != nil {
				ss.push(addr << 1)
			} else {
				sink.Access(addr, false)
			}
			ctr.Loads++
			ctr.LoadBytes += 4
		case isa.SW:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= end4 {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: store at %#x out of range", p.Name, pc, addr)
			}
			binary.LittleEndian.PutUint32(mem[addr:], uint32(v.Regs[in.Rs2&regMask]))
			if ss != nil {
				ss.push(addr<<1 | 1)
			} else {
				sink.Access(addr, true)
			}
			ctr.Stores++
			ctr.StoreBytes += 4
		case isa.LB:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= uint64(len(mem)) {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: load byte at %#x out of range", p.Name, pc, addr)
			}
			v.setReg(in.Rd, int64(int8(mem[addr])))
			if ss != nil {
				ss.push(addr << 1)
			} else {
				sink.Access(addr, false)
			}
			ctr.Loads++
			ctr.LoadBytes++
		case isa.SB:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= uint64(len(mem)) {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: store byte at %#x out of range", p.Name, pc, addr)
			}
			mem[addr] = byte(v.Regs[in.Rs2&regMask])
			if ss != nil {
				ss.push(addr<<1 | 1)
			} else {
				sink.Access(addr, true)
			}
			ctr.Stores++
			ctr.StoreBytes++
		case isa.FLW:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= end8 {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: fp load at %#x out of range", p.Name, pc, addr)
			}
			v.FRegs[in.Fd&fregMask] = floatFrom(binary.LittleEndian.Uint64(mem[addr:]))
			if ss != nil {
				ss.push(addr << 1)
			} else {
				sink.Access(addr, false)
			}
			ctr.Loads++
			ctr.LoadBytes += 8
		case isa.FSW:
			addr := uint64(v.Regs[in.Rs1&regMask] + in.Imm)
			if addr >= end8 {
				v.ctr = ctr
				return ctr, fmt.Errorf("vm: %q pc=%d: fp store at %#x out of range", p.Name, pc, addr)
			}
			binary.LittleEndian.PutUint64(mem[addr:], floatBits(v.FRegs[in.Fs1&fregMask]))
			if ss != nil {
				ss.push(addr<<1 | 1)
			} else {
				sink.Access(addr, true)
			}
			ctr.Stores++
			ctr.StoreBytes += 8

		case isa.BEQ:
			ctr.Branches++
			if v.Regs[in.Rs1&regMask] == v.Regs[in.Rs2&regMask] {
				ctr.BranchesTaken++
				ctr.Cycles++ // redirect penalty
				next = in.Target
			}
		case isa.BNE:
			ctr.Branches++
			if v.Regs[in.Rs1&regMask] != v.Regs[in.Rs2&regMask] {
				ctr.BranchesTaken++
				ctr.Cycles++
				next = in.Target
			}
		case isa.BLT:
			ctr.Branches++
			if v.Regs[in.Rs1&regMask] < v.Regs[in.Rs2&regMask] {
				ctr.BranchesTaken++
				ctr.Cycles++
				next = in.Target
			}
		case isa.BGE:
			ctr.Branches++
			if v.Regs[in.Rs1&regMask] >= v.Regs[in.Rs2&regMask] {
				ctr.BranchesTaken++
				ctr.Cycles++
				next = in.Target
			}
		case isa.JMP:
			ctr.Branches++
			ctr.BranchesTaken++
			ctr.Cycles++
			next = in.Target
		case isa.FBLT:
			ctr.Branches++
			if v.FRegs[in.Fs1&fregMask] < v.FRegs[in.Fs2&fregMask] {
				ctr.BranchesTaken++
				ctr.Cycles++
				next = in.Target
			}
		case isa.FBGE:
			ctr.Branches++
			if v.FRegs[in.Fs1&fregMask] >= v.FRegs[in.Fs2&fregMask] {
				ctr.BranchesTaken++
				ctr.Cycles++
				next = in.Target
			}

		case isa.FADD:
			v.FRegs[in.Fd&fregMask] = v.FRegs[in.Fs1&fregMask] + v.FRegs[in.Fs2&fregMask]
			ctr.FPOps++
		case isa.FSUB:
			v.FRegs[in.Fd&fregMask] = v.FRegs[in.Fs1&fregMask] - v.FRegs[in.Fs2&fregMask]
			ctr.FPOps++
		case isa.FMUL:
			v.FRegs[in.Fd&fregMask] = v.FRegs[in.Fs1&fregMask] * v.FRegs[in.Fs2&fregMask]
			ctr.FPOps++
		case isa.FDIV:
			v.FRegs[in.Fd&fregMask] = safeFDiv(v.FRegs[in.Fs1&fregMask], v.FRegs[in.Fs2&fregMask])
			ctr.FPOps++
		case isa.FMOV:
			v.FRegs[in.Fd&fregMask] = v.FRegs[in.Fs1&fregMask]
			ctr.FPOps++
		case isa.ITOF:
			v.FRegs[in.Fd&fregMask] = float64(v.Regs[in.Rs1&regMask])
			ctr.FPOps++
		case isa.FTOI:
			v.setReg(in.Rd, int64(v.FRegs[in.Fs1&fregMask]))
			ctr.FPOps++

		default:
			v.ctr = ctr
			return ctr, fmt.Errorf("vm: %q pc=%d: unimplemented opcode %d", p.Name, pc, in.Op)
		}
		pc = next
	}
	v.ctr = ctr
	return ctr, ErrBudget{Program: p.Name, Budget: maxInstr}
}

// setReg writes rd, keeping R0 hardwired to zero.
// accessEnd is one past the last start address of a width-byte access
// to n bytes of memory.
func accessEnd(n, width int) uint64 {
	if n < width {
		return 0
	}
	return uint64(n - width + 1)
}

func (v *VM) setReg(rd isa.Reg, val int64) {
	if rd != isa.R0 {
		v.Regs[rd&regMask] = val
	}
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func safeRem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

func safeFDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// floatBits/floatFrom are the IEEE-754 bit casts.
func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFrom(b uint64) float64 { return math.Float64frombits(b) }
