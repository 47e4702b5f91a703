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
