package vm

// Test-only API: packed-access decoding, trace replay, a tee sink, and VM
// construction, inspection and reset helpers. No program reads them.

import (
	"encoding/binary"
	"fmt"
)

// Unpack decodes one packed access.
func Unpack(p uint64) (addr uint64, write bool) {
	return p >> 1, p&1 == 1
}

// Replay feeds the trace into another sink (e.g. a cache hierarchy).
func (t *Trace) Replay(s MemSink) {
	for _, a := range t.Accesses {
		s.Access(a.Addr, a.Write)
	}
}

// TeeSink duplicates accesses to two sinks (e.g. record a trace while also
// warming a cache).
type TeeSink struct {
	A, B MemSink
}

// Access implements MemSink.
func (t TeeSink) Access(addr uint64, write bool) {
	t.A.Access(addr, write)
	t.B.Access(addr, write)
}

// MemSize returns the data-memory size in bytes.
func (v *VM) MemSize() int { return len(v.mem) }

// ResetCounters zeroes the counters (memory and registers are preserved).
func (v *VM) ResetCounters() { v.ctr = Counters{} }

// SetSink replaces the memory-access sink.
func (v *VM) SetSink(s MemSink) {
	if s == nil {
		s = NullSink{}
	}
	v.sink = s
}

// PeekWord reads a 32-bit word during teardown/verification.
func (v *VM) PeekWord(addr uint64) (int32, error) {
	if addr+4 > uint64(len(v.mem)) {
		return 0, fmt.Errorf("vm: peek word at %#x out of range", addr)
	}
	return int32(binary.LittleEndian.Uint32(v.mem[addr:])), nil
}

// PeekFloat reads a float64.
func (v *VM) PeekFloat(addr uint64) (float64, error) {
	if addr+8 > uint64(len(v.mem)) {
		return 0, fmt.Errorf("vm: peek float at %#x out of range", addr)
	}
	return floatFrom(binary.LittleEndian.Uint64(v.mem[addr:])), nil
}

// MustNew is New panicking on error.
func MustNew(memBytes int, sink MemSink) *VM {
	v, err := New(memBytes, sink)
	if err != nil {
		panic(err)
	}
	return v
}

// Counters returns the counters accumulated so far.
func (v *VM) Counters() Counters { return v.ctr }
