package eembc

import (
	"hetsched/internal/isa"
	"hetsched/internal/vm"
)

// Telecom kernels. The paper evaluates "the complete EEMBC suite"; the
// canonical 16-kernel automotive group (Suite) drives the headline
// experiments, and this TelecomSuite provides a second application domain
// for the multi-domain discussion of Section IV.D ("the scheduler could
// have multiple ANNs each of which would be specialized for a different
// domain"). The kernels follow the EEMBC telecom benchmarks they emulate:
// autocorrelation, convolutional encoding, bit allocation and Viterbi
// decoding.

// telecom lists the four telecom kernel constructors in canonical order.
var telecom = []func() Kernel{autcor, conven, fbital, viterb}

// TelecomSuite returns the four telecom kernels in canonical order.
func TelecomSuite() []Kernel { return build(telecom) }

// AllKernels returns the automotive and telecom kernels.
func AllKernels() []Kernel {
	return append(Suite(), TelecomSuite()...)
}

// autcor emulates EEMBC autcor00: fixed-lag autocorrelation of a signal.
// Each lag is one sequential pass over a 3 KB float signal offset against
// itself — heavy reuse, 4 KB-cache shaped.
func autcor() Kernel {
	samples := func(p Params) int { return 384 * p.Scale }
	const lags = 24
	return Kernel{
		Name:        "autcor",
		Description: "autocorrelation over a 3 KB signal, 24 lags",
		MemBytes: func(p Params) int {
			return samples(p)*8 + lags*8 + 64
		},
		Program: func(p Params) (*isa.Program, error) {
			n := int64(samples(p))
			sigBase := int64(0)
			outBase := n * 8
			b := isa.NewBuilder("autcor").
				Li(isa.R10, sigBase).
				Li(isa.R11, outBase).
				Li(isa.R14, lags).
				Li(isa.R15, n).
				Li(isa.R9, int64(p.Iterations)).
				Label("outer").
				Beq(isa.R9, isa.R0, "done").
				Li(isa.R1, 0). // lag k
				Label("lagloop").
				Bge(isa.R1, isa.R14, "outer_next").
				Fsub(isa.F5, isa.F5, isa.F5). // acc = 0
				Sub(isa.R2, isa.R15, isa.R1). // bound = n - k
				Li(isa.R3, 0).                // i
				Label("dot").
				Bge(isa.R3, isa.R2, "dotdone").
				Shli(isa.R4, isa.R3, 3).
				Add(isa.R4, isa.R4, isa.R10).
				Flw(isa.F1, isa.R4, 0). // x[i]
				Add(isa.R5, isa.R3, isa.R1).
				Shli(isa.R5, isa.R5, 3).
				Add(isa.R5, isa.R5, isa.R10).
				Flw(isa.F2, isa.R5, 0). // x[i+k]
				Fmul(isa.F3, isa.F1, isa.F2).
				Fadd(isa.F5, isa.F5, isa.F3).
				Addi(isa.R3, isa.R3, 1).
				Jmp("dot").
				Label("dotdone").
				Shli(isa.R4, isa.R1, 3).
				Add(isa.R4, isa.R4, isa.R11).
				Fsw(isa.F5, isa.R4, 0). // out[k]
				Addi(isa.R1, isa.R1, 1).
				Jmp("lagloop").
				Label("outer_next").
				Addi(isa.R9, isa.R9, -1).
				Jmp("outer").
				Label("done").
				Halt()
			return b.Build()
		},
		Init: func(v *vm.VM, p Params) error {
			r := rng("autcor", p)
			return pokeFloats(v, 0, samples(p), func(i int) float64 {
				return r.Float64()*2 - 1
			})
		},
	}
}

// conven emulates EEMBC conven00: a rate-1/2 K=7 convolutional encoder.
// Input bits stream from a packed word array; each bit updates a shift
// register and two generator parities via a 256-entry parity lookup table.
// Tiny hot set — a 2 KB kernel.
func conven() Kernel {
	words := func(p Params) int { return 256 * p.Scale } // 32 bits each
	const parityBase = 0                                 // 256-byte table
	return Kernel{
		Name:        "conven",
		Description: "K=7 rate-1/2 convolutional encoder with parity LUT",
		MemBytes: func(p Params) int {
			return 256 + words(p)*4 + words(p)*8 + 64
		},
		Program: func(p Params) (*isa.Program, error) {
			n := int64(words(p))
			inBase := int64(256)
			outBase := inBase + n*4
			b := isa.NewBuilder("conven").
				Li(isa.R10, parityBase).
				Li(isa.R11, inBase).
				Li(isa.R12, outBase).
				Li(isa.R15, n).
				Li(isa.R20, 0). // shift register
				Li(isa.R9, int64(p.Iterations*2)).
				Label("outer").
				Beq(isa.R9, isa.R0, "done").
				Li(isa.R1, 0). // word index
				Label("wloop").
				Bge(isa.R1, isa.R15, "outer_next").
				Shli(isa.R4, isa.R1, 2).
				Add(isa.R4, isa.R4, isa.R11).
				Lw(isa.R5, isa.R4, 0). // input word
				Li(isa.R2, 0).         // bit index
				Li(isa.R21, 0).        // encoded output accumulator
				Label("bits").
				Li(isa.R6, 32).
				Bge(isa.R2, isa.R6, "bitsdone").
				// shift in next input bit
				Andi(isa.R6, isa.R5, 1).
				Shri(isa.R5, isa.R5, 1).
				Shli(isa.R20, isa.R20, 1).
				Or(isa.R20, isa.R20, isa.R6).
				Andi(isa.R20, isa.R20, 127). // K=7 window
				// generator 0o171: parity of (sr & 0x79)
				Andi(isa.R6, isa.R20, 0x79).
				Add(isa.R6, isa.R6, isa.R10).
				Lb(isa.R7, isa.R6, 0).
				Shli(isa.R21, isa.R21, 1).
				Or(isa.R21, isa.R21, isa.R7).
				// generator 0o133: parity of (sr & 0x5B)
				Andi(isa.R6, isa.R20, 0x5B).
				Add(isa.R6, isa.R6, isa.R10).
				Lb(isa.R7, isa.R6, 0).
				Shli(isa.R21, isa.R21, 1).
				Or(isa.R21, isa.R21, isa.R7).
				Addi(isa.R2, isa.R2, 1).
				Jmp("bits").
				Label("bitsdone").
				// store the 64 encoded bits
				Shli(isa.R4, isa.R1, 3).
				Add(isa.R4, isa.R4, isa.R12).
				Sw(isa.R21, isa.R4, 0).
				Shri(isa.R21, isa.R21, 32).
				Sw(isa.R21, isa.R4, 4).
				Addi(isa.R1, isa.R1, 1).
				Jmp("wloop").
				Label("outer_next").
				Addi(isa.R9, isa.R9, -1).
				Jmp("outer").
				Label("done").
				Halt()
			return b.Build()
		},
		Init: func(v *vm.VM, p Params) error {
			// Parity lookup table.
			for i := 0; i < 256; i++ {
				x := i
				x ^= x >> 4
				x ^= x >> 2
				x ^= x >> 1
				if err := v.PokeByte(uint64(i), byte(x&1)); err != nil {
					return err
				}
			}
			r := rng("conven", p)
			return pokeWords(v, 256, words(p), func(i int) int32 {
				return int32(r.Uint32())
			})
		},
	}
}

// fbital emulates EEMBC fbital00: water-filling bit allocation over DSL
// subchannels. Repeated full scans of a 3 KB gain table to find the best
// channel, decrementing its margin — sequential reuse, 4 KB shaped.
func fbital() Kernel {
	channels := func(p Params) int { return 768 * p.Scale }
	return Kernel{
		Name:        "fbital",
		Description: "water-filling bit allocation over a 3 KB gain table",
		MemBytes: func(p Params) int {
			return channels(p)*4*2 + 64 // gains + allocated bits
		},
		Program: func(p Params) (*isa.Program, error) {
			n := int64(channels(p))
			gainBase := int64(0)
			bitsBase := n * 4
			budget := int64(48 * p.Scale) // allocation rounds
			b := isa.NewBuilder("fbital").
				Li(isa.R10, gainBase).
				Li(isa.R11, bitsBase).
				Li(isa.R15, n).
				Li(isa.R9, int64(p.Iterations)).
				Label("outer").
				Beq(isa.R9, isa.R0, "done").
				Li(isa.R14, budget).
				Label("round").
				Beq(isa.R14, isa.R0, "outer_next").
				// scan for the max-gain channel
				Li(isa.R1, 0).  // index
				Li(isa.R2, -1). // best index
				Li(isa.R3, 0).  // best gain (gains are positive)
				Label("scan").
				Bge(isa.R1, isa.R15, "scandone").
				Shli(isa.R4, isa.R1, 2).
				Add(isa.R4, isa.R4, isa.R10).
				Lw(isa.R5, isa.R4, 0).
				Bge(isa.R3, isa.R5, "skip").
				Add(isa.R3, isa.R5, isa.R0).
				Add(isa.R2, isa.R1, isa.R0).
				Label("skip").
				Addi(isa.R1, isa.R1, 1).
				Jmp("scan").
				Label("scandone").
				// all channels exhausted: stop allocating this pass
				Blt(isa.R2, isa.R0, "outer_next").
				// allocate one bit: gains[best] >>= 1 ; bits[best]++
				Shli(isa.R4, isa.R2, 2).
				Add(isa.R5, isa.R4, isa.R10).
				Lw(isa.R6, isa.R5, 0).
				Shri(isa.R6, isa.R6, 1).
				Sw(isa.R6, isa.R5, 0).
				Add(isa.R5, isa.R4, isa.R11).
				Lw(isa.R6, isa.R5, 0).
				Addi(isa.R6, isa.R6, 1).
				Sw(isa.R6, isa.R5, 0).
				Addi(isa.R14, isa.R14, -1).
				Jmp("round").
				Label("outer_next").
				Addi(isa.R9, isa.R9, -1).
				Jmp("outer").
				Label("done").
				Halt()
			return b.Build()
		},
		Init: func(v *vm.VM, p Params) error {
			r := rng("fbital", p)
			return pokeWords(v, 0, channels(p), func(i int) int32 {
				return int32(r.Intn(1<<20) + 1)
			})
		},
	}
}

// viterb emulates EEMBC viterb00: a K=7 (64-state) Viterbi decoder. Per
// received symbol, all 64 states update from two predecessor metrics
// (strided access into the previous-metric array) and write a 64-bit
// traceback word. Metrics + traceback + symbols total ≈7 KB — an 8 KB
// kernel.
func viterb() Kernel {
	symbols := func(p Params) int { return 448 * p.Scale }
	const states = 64
	return Kernel{
		Name:        "viterb",
		Description: "64-state Viterbi decode with traceback",
		MemBytes: func(p Params) int {
			// two metric arrays + symbol stream + traceback words
			return states*4*2 + symbols(p)*4 + symbols(p)*8 + 64
		},
		Program: func(p Params) (*isa.Program, error) {
			n := int64(symbols(p))
			metricA := int64(0)
			metricB := int64(states * 4)
			symBase := int64(states * 4 * 2)
			tbBase := symBase + n*4
			b := isa.NewBuilder("viterb").
				Li(isa.R10, metricA). // previous metrics
				Li(isa.R11, metricB). // current metrics
				Li(isa.R12, symBase).
				Li(isa.R13, tbBase).
				Li(isa.R15, n).
				Li(isa.R9, int64(p.Iterations)).
				Label("outer").
				Beq(isa.R9, isa.R0, "done").
				Li(isa.R1, 0). // symbol index
				Label("symloop").
				Bge(isa.R1, isa.R15, "outer_next").
				Shli(isa.R4, isa.R1, 2).
				Add(isa.R4, isa.R4, isa.R12).
				Lw(isa.R21, isa.R4, 0). // received symbol
				Li(isa.R2, 0).          // state
				Li(isa.R22, 0).         // traceback word
				Label("states").
				Li(isa.R6, states).
				Bge(isa.R2, isa.R6, "statesdone").
				// predecessors: s>>1 and (s>>1)+32
				Shri(isa.R3, isa.R2, 1).
				Shli(isa.R4, isa.R3, 2).
				Add(isa.R4, isa.R4, isa.R10).
				Lw(isa.R5, isa.R4, 0).   // metric[p0]
				Lw(isa.R6, isa.R4, 128). // metric[p0+32]
				// branch metric: cheap hash of state and symbol
				Xor(isa.R7, isa.R2, isa.R21).
				Andi(isa.R7, isa.R7, 3).
				Add(isa.R5, isa.R5, isa.R7).
				Add(isa.R6, isa.R6, isa.R7).
				// survivor = min, traceback bit = which
				Blt(isa.R5, isa.R6, "takeA").
				Add(isa.R5, isa.R6, isa.R0).
				Shli(isa.R22, isa.R22, 1).
				Ori(isa.R22, isa.R22, 1).
				Jmp("store").
				Label("takeA").
				Shli(isa.R22, isa.R22, 1).
				Label("store").
				Shli(isa.R4, isa.R2, 2).
				Add(isa.R4, isa.R4, isa.R11).
				Sw(isa.R5, isa.R4, 0).
				Addi(isa.R2, isa.R2, 1).
				Jmp("states").
				Label("statesdone").
				// write traceback word, swap metric arrays
				Shli(isa.R4, isa.R1, 3).
				Add(isa.R4, isa.R4, isa.R13).
				Sw(isa.R22, isa.R4, 0).
				Shri(isa.R22, isa.R22, 32).
				Sw(isa.R22, isa.R4, 4).
				Add(isa.R7, isa.R10, isa.R0).
				Add(isa.R10, isa.R11, isa.R0).
				Add(isa.R11, isa.R7, isa.R0).
				Addi(isa.R1, isa.R1, 1).
				Jmp("symloop").
				Label("outer_next").
				Addi(isa.R9, isa.R9, -1).
				Jmp("outer").
				Label("done").
				Halt()
			return b.Build()
		},
		Init: func(v *vm.VM, p Params) error {
			r := rng("viterb", p)
			// Initial path metrics: state 0 favoured.
			for s := 0; s < states; s++ {
				m := int32(1000)
				if s == 0 {
					m = 0
				}
				if err := v.PokeWord(uint64(s*4), m); err != nil {
					return err
				}
			}
			return pokeWords(v, uint64(states*4*2), symbols(p), func(i int) int32 {
				return int32(r.Intn(4))
			})
		},
	}
}
