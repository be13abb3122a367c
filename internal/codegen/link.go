package codegen

import (
	"fmt"
	"strings"

	"idemproc/internal/ir"
	"idemproc/internal/isa"
)

// Program is a linked machine executable for the simulator.
//
// Immutability contract: once Link returns, a Program is read-only.
// machine.Machine only ever reads it (each machine keeps its own memory,
// registers and statistics) and fault.Apply builds a fresh instrumented
// Program rather than editing in place, so one linked Program may back
// any number of concurrent simulator runs — internal/buildcache relies on
// this to share compiles across experiment workers. Anything that needs
// to edit instructions must copy first.
type Program struct {
	Instrs []isa.Instr
	// Entry is the index of the startup stub, which calls Main and HALTs.
	Entry int
	// Main is the program's entry function name.
	Main string
	// FuncEntry maps function names to their first instruction.
	FuncEntry map[string]int
	// FuncOf maps each instruction index to its function name ("" for the
	// stub), for per-function statistics.
	FuncOf []string
	// GlobalBase maps global names to absolute word addresses; GlobalEnd
	// is one past the last global word.
	GlobalBase map[string]int64
	GlobalEnd  int64
	// Globals carries the initializers for machine reset.
	Globals []*ir.GlobalVar
	// MemWords is the memory size the program was linked for; the stack
	// grows down from MemWords.
	MemWords int
	// Marks counts region-boundary instructions across all functions.
	Marks int
}

// LayoutGlobals assigns absolute addresses to a module's globals exactly
// like the reference interpreter (address 0 reserved, globals from 1).
func LayoutGlobals(m *ir.Module) (map[string]int64, int64) {
	base := map[string]int64{}
	addr := int64(1)
	for _, g := range m.Globals {
		base[g.Name] = addr
		addr += g.Size
	}
	return base, addr
}

// Link assembles compiled functions into an executable. main is the
// function the stub calls; memWords sizes the machine memory.
func Link(m *ir.Module, funcs []*Compiled, main string, memWords int) (*Program, error) {
	globalBase, end := LayoutGlobals(m)
	p := &Program{
		Main:       main,
		FuncEntry:  map[string]int{},
		GlobalBase: globalBase,
		GlobalEnd:  end,
		Globals:    m.Globals,
		MemWords:   memWords,
	}

	n := 3 // the startup stub
	for _, c := range funcs {
		n += len(c.Code)
	}
	p.Instrs = make([]isa.Instr, 0, n)
	p.FuncOf = make([]string, 0, n)

	// Startup stub: sp = memWords, call main, halt.
	p.Entry = 0
	p.Instrs = append(p.Instrs,
		isa.Instr{Op: isa.MOVI, Rd: isa.SP, Imm: int64(memWords)},
		isa.Instr{Op: isa.CALL, Sym: main, Imm: -1},
		isa.Instr{Op: isa.HALT},
	)
	p.FuncOf = append(p.FuncOf, "", "", "")

	for _, c := range funcs {
		base := len(p.Instrs)
		p.FuncEntry[c.Name] = base
		p.Marks += c.Marks
		for _, in := range c.Code {
			if in.IsBranch() && in.Op != isa.CALL && in.Op != isa.RET {
				in.Imm += int64(base)
			}
			p.Instrs = append(p.Instrs, in)
			p.FuncOf = append(p.FuncOf, c.Name)
		}
	}

	// Resolve calls.
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == isa.CALL {
			tgt, ok := p.FuncEntry[in.Sym]
			if !ok {
				return nil, fmt.Errorf("link: call to undefined function %q", in.Sym)
			}
			in.Imm = int64(tgt)
		}
	}
	return p, nil
}

// Disassemble renders the program for debugging: function labels at
// their entry points and a running region index at every MARK (the
// region numbering the verifier and the recovery machinery share —
// region 0 is the startup pseudo-region entered at the stub).
func Disassemble(p *Program) string {
	return DisassembleAnnotated(p, nil)
}

// DisassembleAnnotated is Disassemble with per-pc notes appended after
// the instructions they describe (one indented line per note), so
// callers like `idemc -disasm -verify` can print criterion violations
// inline. A nil or empty notes map renders exactly like Disassemble.
func DisassembleAnnotated(p *Program, notes map[int][]string) string {
	// Function labels keyed by entry pc, printed in address order (the
	// FuncEntry map itself carries no order).
	labels := make(map[int]string, len(p.FuncEntry))
	for name, e := range p.FuncEntry {
		labels[e] = name
	}
	var b strings.Builder
	region := 0
	for i, in := range p.Instrs {
		if name, ok := labels[i]; ok {
			fmt.Fprintf(&b, "<%s>:\n", name)
		}
		if in.Op == isa.MARK && in.Shadow == 0 {
			region++
			fmt.Fprintf(&b, "%5d: %-24s ; region %d\n", i, in.String(), region)
		} else {
			fmt.Fprintf(&b, "%5d: %s\n", i, in)
		}
		for _, note := range notes[i] {
			fmt.Fprintf(&b, "       ^ %s\n", note)
		}
	}
	return b.String()
}
