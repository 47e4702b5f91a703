package vm

// Access is one recorded data-memory access.
type Access struct {
	Addr  uint64
	Write bool
}

// Trace records a program's full memory-access stream so it can be replayed
// through every cache configuration without re-executing the program — the
// same record-once/replay-everywhere flow the paper uses with SimpleScalar
// traces.
type Trace struct {
	Accesses []Access
}

// Access implements MemSink.
func (t *Trace) Access(addr uint64, write bool) {
	t.Accesses = append(t.Accesses, Access{Addr: addr, Write: write})
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// Reads counts the read accesses.
func (t *Trace) Reads() int {
	n := 0
	for _, a := range t.Accesses {
		if !a.Write {
			n++
		}
	}
	return n
}

// Writes counts the write accesses.
func (t *Trace) Writes() int { return t.Len() - t.Reads() }

// Footprint returns the number of distinct blocks of the given size touched
// by the trace — the working-set proxy among the execution statistics.
func (t *Trace) Footprint(blockBytes int) int {
	if blockBytes <= 0 {
		return 0
	}
	seen := make(map[uint64]struct{})
	for _, a := range t.Accesses {
		seen[a.Addr/uint64(blockBytes)] = struct{}{}
	}
	return len(seen)
}
