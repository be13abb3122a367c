// Package fault implements the §6.3 recovery-scheme code transforms of
// Figure 11 over linked machine programs:
//
//   - DMR: instruction-level dual-modular redundancy detection (the common
//     baseline, after Reis et al. / Oh et al.): every computation is
//     duplicated into a shadow bank and CHECKed at load, store and
//     control-flow boundaries.
//   - INSTRUCTION-TMR: a third copy of each non-memory instruction plus
//     single-cycle majority votes before loads and stores (Chang et al.),
//     correcting values in place.
//   - CHECKPOINT-AND-LOG: DMR detection plus STM-style undo logging —
//     before every store, the old value and address are appended to a log
//     held behind the dedicated pointer register (we use rp, which is
//     free in non-idempotent binaries); register checkpoints at log reset
//     are modelled as free, per the paper's optimistic assumption.
//   - IDEMPOTENCE: DMR detection on the idempotent binary; its MARK
//     instructions already carry the "mov rp" boundary cost.
//
// Transforms return a new instrumented program; the original is untouched.
package fault

import (
	"idemproc/internal/codegen"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
)

// Scheme identifies a recovery configuration.
type Scheme uint8

const (
	// SchemeDMR is detection only — the baseline of Figure 12.
	SchemeDMR Scheme = iota
	// SchemeTMR is INSTRUCTION-TMR.
	SchemeTMR
	// SchemeCheckpointLog is CHECKPOINT-AND-LOG.
	SchemeCheckpointLog
	// SchemeIdempotence is idempotence-based recovery (apply to the
	// idempotent binary).
	SchemeIdempotence
)

// Schemes lists the recovery schemes in Figure 12's order.
var Schemes = []Scheme{SchemeDMR, SchemeTMR, SchemeCheckpointLog, SchemeIdempotence}

// schemeTable is the one place a scheme's names and machine
// configuration are spelled out; Apply holds its transform.
var schemeTable = [...]struct {
	name, flag string
	cfg        machine.Config
}{
	// DMR detects only; its campaigns report detections, not recoveries.
	SchemeDMR:           {"DMR", "dmr", machine.Config{}},
	SchemeTMR:           {"INSTRUCTION-TMR", "tmr", machine.Config{Recovery: machine.RecoverTMR}},
	SchemeCheckpointLog: {"CHECKPOINT-AND-LOG", "cl", machine.Config{Recovery: machine.RecoverCheckpointLog}},
	SchemeIdempotence:   {"IDEMPOTENCE", "idem", machine.Config{Recovery: machine.RecoverIdempotence, BufferStores: true}},
}

func (s Scheme) String() string {
	if int(s) < len(schemeTable) {
		return schemeTable[s].name
	}
	return "?"
}

// ParseScheme resolves a scheme's API and command-line spelling: dmr,
// tmr, cl or idem. Running without a scheme ("none") is the caller's
// concern.
func ParseScheme(name string) (Scheme, bool) {
	for s, e := range schemeTable {
		if e.flag == name {
			return Scheme(s), true
		}
	}
	return 0, false
}

// Idempotent reports whether the scheme instruments the idempotent build
// (the others instrument the conventional one).
func (s Scheme) Idempotent() bool { return s == SchemeIdempotence }

// Config returns the machine configuration that runs the scheme's
// instrumented program.
func (s Scheme) Config() machine.Config {
	if int(s) < len(schemeTable) {
		return schemeTable[s].cfg
	}
	return machine.Config{}
}

// Apply instruments p for the scheme and returns the new program.
func Apply(p *codegen.Program, s Scheme) *codegen.Program {
	switch s {
	case SchemeDMR, SchemeIdempotence:
		return instrument(p, func(i int, in isa.Instr) ([]isa.Instr, []isa.Instr) {
			return dmrEdit(in, 1)
		})
	case SchemeTMR:
		return instrument(p, tmrEdit)
	case SchemeCheckpointLog:
		return instrument(p, clEdit)
	}
	return p
}

// DMREdit exposes the DMR transform of a single instruction for display
// purposes (Figure 11 rendering).
func DMREdit(in isa.Instr) (before, after []isa.Instr) { return dmrEdit(in, 1) }

// TMREdit exposes the TMR transform of a single instruction.
func TMREdit(i int, in isa.Instr) (before, after []isa.Instr) { return tmrEdit(i, in) }

// CLEdit exposes the checkpoint-and-log transform of a single instruction.
func CLEdit(i int, in isa.Instr) (before, after []isa.Instr) { return clEdit(i, in) }

// dmrEdit produces the DMR before/after lists for one instruction; copies
// is the number of redundant copies (1 for DMR, 2 for TMR's ALU part).
func dmrEdit(in isa.Instr, copies uint8) (before, after []isa.Instr) {
	switch {
	case in.Op == isa.LDR || in.Op == isa.FLDR:
		before = append(before, isa.Instr{Op: isa.CHECK, Rs1: in.Rs1})
		// The redundant load (Fig. 11 shows DMR duplicating loads).
		sh := in
		sh.Shadow = 1
		after = append(after, sh)
	case in.Op == isa.STR || in.Op == isa.FSTR:
		before = append(before,
			isa.Instr{Op: isa.CHECK, Rs1: in.Rs1},
			isa.Instr{Op: isa.CHECK, Rs1: in.Rs2})
	case in.Op == isa.CBZ || in.Op == isa.CBNZ:
		before = append(before, isa.Instr{Op: isa.CHECK, Rs1: in.Rs1})
	case in.Op == isa.RET:
		// Control-flow verification at the return: the return address
		// and the outputs flowing through r0/f0.
		before = append(before,
			isa.Instr{Op: isa.CHECK, Rs1: isa.LR},
			isa.Instr{Op: isa.CHECK, Rs1: isa.R0},
			isa.Instr{Op: isa.CHECK, Rs1: isa.F(0)})
	case writesArch(in):
		for c := uint8(1); c <= copies; c++ {
			sh := in
			sh.Shadow = c
			after = append(after, sh)
		}
	}
	return before, after
}

// writesArch reports whether in computes an architectural register result
// worth duplicating (ALU, moves, constants, conversions).
func writesArch(in isa.Instr) bool {
	switch in.Op {
	case isa.NOP, isa.B, isa.CBZ, isa.CBNZ, isa.CALL, isa.RET, isa.HALT,
		isa.MARK, isa.CHECK, isa.MAJ, isa.LDR, isa.FLDR, isa.STR, isa.FSTR:
		return false
	}
	// Stack-pointer arithmetic is protected by the control checks; skip
	// duplicating it so sp stays identical across banks.
	if in.Rd == isa.SP || in.Rd == isa.LR || in.Rd == isa.RP {
		return false
	}
	return true
}

// tmrEdit triples computations and votes before memory and control ops.
func tmrEdit(i int, in isa.Instr) (before, after []isa.Instr) {
	switch {
	case in.Op == isa.LDR || in.Op == isa.FLDR:
		before = append(before, isa.Instr{Op: isa.MAJ, Rd: in.Rs1})
		sh := in
		sh.Shadow = 1
		after = append(after, sh)
	case in.Op == isa.STR || in.Op == isa.FSTR:
		before = append(before,
			isa.Instr{Op: isa.MAJ, Rd: in.Rs1},
			isa.Instr{Op: isa.MAJ, Rd: in.Rs2})
	case in.Op == isa.CBZ || in.Op == isa.CBNZ:
		before = append(before, isa.Instr{Op: isa.MAJ, Rd: in.Rs1})
	case in.Op == isa.RET:
		before = append(before,
			isa.Instr{Op: isa.MAJ, Rd: isa.LR},
			isa.Instr{Op: isa.MAJ, Rd: isa.R0},
			isa.Instr{Op: isa.MAJ, Rd: isa.F(0)})
	case writesArch(in):
		for c := uint8(1); c <= 2; c++ {
			sh := in
			sh.Shadow = c
			after = append(after, sh)
		}
	}
	return before, after
}

// clEdit is CHECKPOINT-AND-LOG: DMR detection plus the undo-log sequence
// before every store (Fig. 11 column 3):
//
//	addi lr, base, #off    ; effective address (lr is free here: it is
//	                       ; saved in the frame between prologue/epilogue)
//	fldr f30, [lr, 0]      ; old value (f30 is free before any store)
//	fstr f30, [rp, 0]      ; log the value
//	str  lr,  [rp, 1]      ; log the address
//	addi rp, rp, 2         ; advance the log pointer
//
// The simulator checkpoints registers and resets rp when the log fills
// (modelled as free, per the paper). Every store is logged, including the
// prologue's LR save — a sibling call after the checkpoint overwrites the
// frame's return-address slot, and replay must be able to undo it; that
// one store uses r12 as the address scratch since LR is the value.
func clEdit(i int, in isa.Instr) (before, after []isa.Instr) {
	before, after = dmrEdit(in, 1)
	if in.Op == isa.STR || in.Op == isa.FSTR {
		scratch := isa.LR
		if in.Rs2 == isa.LR {
			// r12 is free between expansion units, which is where the
			// prologue LR save lives.
			scratch = isa.R12
		}
		logSeq := []isa.Instr{
			{Op: isa.ADDI, Rd: scratch, Rs1: in.Rs1, Imm: in.Imm, Meta: true},
			{Op: isa.FLDR, Rd: isa.F(30), Rs1: scratch, Imm: 0, Meta: true},
			{Op: isa.FSTR, Rs1: isa.RP, Rs2: isa.F(30), Imm: 0, Meta: true},
			{Op: isa.STR, Rs1: isa.RP, Rs2: scratch, Imm: 1, Meta: true},
			{Op: isa.ADDI, Rd: isa.RP, Rs1: isa.RP, Imm: 2, Meta: true},
		}
		before = append(before, logSeq...)
	}
	return before, after
}

// instrument rebuilds p with the edit function's insertions, remapping
// every static branch and call target.
func instrument(p *codegen.Program, edit func(int, isa.Instr) ([]isa.Instr, []isa.Instr)) *codegen.Program {
	n := len(p.Instrs)
	newIdx := make([]int, n+1)
	var out []isa.Instr
	var outFn []string

	for i, in := range p.Instrs {
		before, after := edit(i, in)
		// A branch to i must land at the start of i's inserted prefix so
		// the checks execute.
		newIdx[i] = len(out)
		for _, b := range before {
			out = append(out, b)
			outFn = append(outFn, p.FuncOf[i])
		}
		out = append(out, in)
		outFn = append(outFn, p.FuncOf[i])
		for _, a := range after {
			out = append(out, a)
			outFn = append(outFn, p.FuncOf[i])
		}
	}
	newIdx[n] = len(out)

	np := &codegen.Program{
		Instrs:     out,
		Entry:      newIdx[p.Entry],
		Main:       p.Main,
		FuncEntry:  map[string]int{},
		FuncOf:     outFn,
		GlobalBase: p.GlobalBase,
		GlobalEnd:  p.GlobalEnd,
		Globals:    p.Globals,
		MemWords:   p.MemWords,
		Marks:      p.Marks,
	}
	for name, e := range p.FuncEntry {
		np.FuncEntry[name] = newIdx[e]
	}
	for i := range np.Instrs {
		in := &np.Instrs[i]
		switch in.Op {
		case isa.B, isa.CBZ, isa.CBNZ, isa.CALL:
			in.Imm = int64(newIdx[in.Imm])
		}
	}
	return np
}
