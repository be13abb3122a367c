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

// schemeTable is the one place a scheme's names, machine configuration
// and per-instruction transform are spelled out.
var schemeTable = [...]struct {
	name, flag string
	cfg        machine.Config
	edit       func(int, isa.Instr) (before, after []isa.Instr)
}{
	// DMR detects only; its campaigns report detections, not recoveries.
	SchemeDMR:           {"DMR", "dmr", machine.Config{}, dmr.edit},
	SchemeTMR:           {"INSTRUCTION-TMR", "tmr", machine.Config{Recovery: machine.RecoverTMR}, tmr.edit},
	SchemeCheckpointLog: {"CHECKPOINT-AND-LOG", "cl", machine.Config{Recovery: machine.RecoverCheckpointLog}, clEdit},
	SchemeIdempotence:   {"IDEMPOTENCE", "idem", machine.Config{Recovery: machine.RecoverIdempotence, BufferStores: true}, dmr.edit},
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
	if int(s) < len(schemeTable) {
		return instrument(p, schemeTable[s].edit)
	}
	return p
}

// DMREdit exposes the DMR transform of a single instruction for display
// purposes (Figure 11 rendering).
func DMREdit(in isa.Instr) (before, after []isa.Instr) { return dmr.edit(0, in) }

// TMREdit exposes the TMR transform of a single instruction.
func TMREdit(i int, in isa.Instr) (before, after []isa.Instr) { return tmr.edit(i, in) }

// CLEdit exposes the checkpoint-and-log transform of a single instruction.
func CLEdit(i int, in isa.Instr) (before, after []isa.Instr) { return clEdit(i, in) }

// redundancy is the DMR and TMR transform: a vote on every register a
// guarded instruction reads, and shadow copies of every computation.
type redundancy struct {
	vote   isa.Op // CHECK detects a divergence, MAJ outvotes it
	copies uint8  // shadow copies of each computation
}

var (
	dmr = redundancy{vote: isa.CHECK, copies: 1}
	tmr = redundancy{vote: isa.MAJ, copies: 2}
)

// edit produces the before/after lists for one instruction. Memory
// operations and the register-reading branches (CBZ, CBNZ, RET) are
// guarded: each register they read is voted on first, and a load is
// duplicated (Fig. 11 shows DMR duplicating loads). An instruction that
// writes a register outside the convention gets r.copies shadow copies;
// sp, lr and rp are protected by the control checks instead, so sp stays
// identical across banks.
func (r redundancy) edit(_ int, in isa.Instr) (before, after []isa.Instr) {
	switch in.Op {
	case isa.LDR, isa.FLDR, isa.STR, isa.FSTR, isa.CBZ, isa.CBNZ, isa.RET:
		srcs, n := in.Reads()
		for _, reg := range srcs[:n] {
			before = append(before, r.voteOn(reg))
		}
		switch in.Op {
		case isa.RET:
			// Control-flow verification at the return covers the
			// outputs flowing through r0/f0 too.
			before = append(before, r.voteOn(isa.R0), r.voteOn(isa.F(0)))
		case isa.LDR, isa.FLDR:
			sh := in
			sh.Shadow = 1
			after = append(after, sh)
		}
	default:
		if in.Op.WritesRd() && !in.Rd.Reserved() {
			for c := uint8(1); c <= r.copies; c++ {
				sh := in
				sh.Shadow = c
				after = append(after, sh)
			}
		}
	}
	return before, after
}

// voteOn returns r's vote instruction on reg, in the operand the vote
// reads.
func (r redundancy) voteOn(reg isa.Reg) isa.Instr {
	if r.vote == isa.MAJ {
		return isa.Instr{Op: isa.MAJ, Rd: reg}
	}
	return isa.Instr{Op: r.vote, Rs1: reg}
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
	before, after = dmr.edit(i, in)
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
