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
