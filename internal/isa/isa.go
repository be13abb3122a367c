// Package isa defines the target machine: an ARM-flavoured load–store ISA
// with 16 integer registers and 32 floating-point registers (the paper's
// ARMv7 register-file split, which drives its SPEC INT vs SPEC FP overhead
// trend), word-addressed memory, and a handful of pseudo-operations used
// by the recovery transforms of §6.3 (region marks, DMR checks, TMR
// majority votes).
package isa

import "fmt"

// Reg names a physical register. Integer registers are R0..R15; floating
// point registers are F0..F31 (encoded as 16+i).
type Reg uint8

// Integer register conventions.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11 // integer scratch (spill temporaries)
	R12 // integer scratch
	SP  // r13: stack pointer
	LR  // r14: link register
	RP  // r15: restart pointer (region entry, §6.3)
)

// F returns the i'th floating point register.
func F(i int) Reg { return Reg(16 + i) }

// NumIntRegs and NumFloatRegs give the architectural register counts.
// NumRegs is the size of the unified register file: the Reg encoding is
// already flat (r0..r15 at 0..15, f0..f31 at 16..47), so a single
// NumRegs-entry bank indexed directly by Reg holds both files — the
// simulator's hot loop relies on this to avoid any int/float dispatch.
const (
	NumIntRegs   = 16
	NumFloatRegs = 32
	NumRegs      = NumIntRegs + NumFloatRegs
)

// IsFloat reports whether r is a floating point register.
func (r Reg) IsFloat() bool { return r >= 16 }

// Reserved reports whether r belongs to the calling and recovery
// convention rather than to the program's values: sp, lr and rp.
func (r Reg) Reserved() bool { return r == SP || r == LR || r == RP }

func (r Reg) String() string {
	if r.IsFloat() {
		return fmt.Sprintf("f%d", int(r-16))
	}
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	case RP:
		return "rp"
	}
	return fmt.Sprintf("r%d", int(r))
}

// Op is a machine operation.
type Op uint8

const (
	// NOP does nothing (issue filler in tests).
	NOP Op = iota

	// MOVI rd, #imm: materialize an integer constant.
	MOVI
	// FMOVI fd, #fimm: materialize a float constant.
	FMOVI
	// MOV rd, rs: integer register move.
	MOV
	// FMOV fd, fs: float register move.
	FMOV

	// Integer ALU: rd = rs1 op rs2.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	ORR
	EOR
	LSL
	ASR
	// ADDI rd, rs1, #imm (also the address-formation op).
	ADDI
	// NEG rd, rs1; MVN rd, rs1 (bitwise not).
	NEG
	MVN

	// Integer compare-and-set: rd = (rs1 op rs2) ? 1 : 0.
	SEQ
	SNE
	SLT
	SLE
	SGT
	SGE

	// Float ALU: fd = fs1 op fs2 (FNEG unary).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG

	// Float compare-and-set into an integer register.
	FSEQ
	FSNE
	FSLT
	FSLE
	FSGT
	FSGE

	// Conversions.
	ITOF // fd = float(rs1)
	FTOI // rd = int(fs1)

	// LDR rd, [rs1, #imm]; STR rs2, [rs1, #imm]. FLDR/FSTR for floats.
	LDR
	STR
	FLDR
	FSTR

	// Control flow. Imm is the absolute instruction index after linking.
	B
	CBZ  // branch if rs1 == 0
	CBNZ // branch if rs1 != 0
	CALL // lr = pc+1; jump
	RET  // jump to lr
	HALT // stop the machine (end of the startup stub)

	// MARK opens a new idempotent region: rp = pc, and buffered stores
	// commit (§2.3: stores are released once control flow is verified at
	// the boundary). Costs one issue slot, like the paper's "mov rp".
	MARK

	// Fault-detection pseudo-ops (§6.3). The simulator executes them
	// against its shadow state: CHECK verifies rd's shadow copy matches
	// (DMR), MAJ majority-votes rd across the two shadow copies (TMR).
	// Each costs one issue slot, matching the paper's single-cycle
	// assumption for majority voting.
	CHECK
	MAJ
)

var opNames = map[Op]string{
	NOP: "nop", MOVI: "movi", FMOVI: "fmovi", MOV: "mov", FMOV: "fmov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", ORR: "orr", EOR: "eor", LSL: "lsl", ASR: "asr",
	ADDI: "addi", NEG: "neg", MVN: "mvn",
	SEQ: "seq", SNE: "sne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FSEQ: "fseq", FSNE: "fsne", FSLT: "fslt", FSLE: "fsle", FSGT: "fsgt", FSGE: "fsge",
	ITOF: "itof", FTOI: "ftoi",
	LDR: "ldr", STR: "str", FLDR: "fldr", FSTR: "fstr",
	B: "b", CBZ: "cbz", CBNZ: "cbnz", CALL: "call", RET: "ret", HALT: "halt",
	MARK: "mark", CHECK: "check", MAJ: "maj",
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Instr is one machine instruction. Rd is the destination; Rs1/Rs2 the
// sources; Imm carries immediates, load/store offsets and branch targets;
// FImm carries FMOVI constants; Sym is debug info (call target name).
type Instr struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Imm  int64
	FImm float64
	Sym  string
	// Shadow marks redundant copies inserted by the DMR/TMR recovery
	// transforms: 0 executes architecturally, 1 and 2 execute against the
	// simulator's shadow register banks (they occupy pipeline resources
	// but do not change architectural state).
	Shadow uint8
	// Meta marks instrumentation inserted by the recovery transforms
	// (checks, votes, log writes). The fault injector never targets Meta
	// instructions: the paper's fault model corrupts the protected
	// program's execution, and the detection/logging machinery is assumed
	// protected (as in SWIFT-style schemes).
	Meta bool
}

// IsMem reports whether the instruction accesses memory.
func (i Instr) IsMem() bool {
	switch i.Op {
	case LDR, STR, FLDR, FSTR:
		return true
	}
	return false
}

// IsBranch reports whether the instruction can redirect control flow.
func (i Instr) IsBranch() bool {
	switch i.Op {
	case B, CBZ, CBNZ, CALL, RET:
		return true
	}
	return false
}

// Reads returns the registers the instruction reads, in operand order,
// as regs[:n]: a store's base then its value, a binary op's or
// compare's two sources, MAJ's Rd, RET's lr, nothing for NOP, MOVI,
// FMOVI, B, CALL, HALT and MARK, and Rs1 for every other op, an opcode
// outside the ISA included.
func (i Instr) Reads() (regs [2]Reg, n int) {
	switch i.Op {
	case NOP, MOVI, FMOVI, B, CALL, HALT, MARK:
		return regs, 0
	case RET:
		return [2]Reg{LR}, 1
	case MAJ:
		return [2]Reg{i.Rd}, 1
	case STR, FSTR,
		ADD, SUB, MUL, DIV, REM, AND, ORR, EOR, LSL, ASR,
		SEQ, SNE, SLT, SLE, SGT, SGE,
		FADD, FSUB, FMUL, FDIV,
		FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return [2]Reg{i.Rs1, i.Rs2}, 2
	}
	return [2]Reg{i.Rs1}, 1
}

// WritesRd reports whether the op computes a value into Rd: loads,
// moves, constants, ALU ops, compares and conversions do, and so does
// an opcode outside the ISA. CALL does not: its lr write is part of the
// convention. Nor does MAJ: a vote restores Rd, it computes nothing.
func (op Op) WritesRd() bool {
	switch op {
	case NOP, STR, FSTR, B, CBZ, CBNZ, CALL, RET, HALT, MARK, CHECK, MAJ:
		return false
	}
	return true
}

// String renders the instruction in assembly syntax.
func (i Instr) String() string {
	switch i.Op {
	case NOP, RET, HALT, MARK:
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("movi %s, #%d", i.Rd, i.Imm)
	case FMOVI:
		return fmt.Sprintf("fmovi %s, #%g", i.Rd, i.FImm)
	case MOV, FMOV, NEG, MVN, ITOF, FTOI, FNEG:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case ADDI:
		return fmt.Sprintf("addi %s, %s, #%d", i.Rd, i.Rs1, i.Imm)
	case LDR, FLDR:
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case STR, FSTR:
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rs2, i.Rs1, i.Imm)
	case B:
		return fmt.Sprintf("b %d", i.Imm)
	case CBZ, CBNZ:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs1, i.Imm)
	case CALL:
		return fmt.Sprintf("call %d <%s>", i.Imm, i.Sym)
	case CHECK:
		return fmt.Sprintf("check %s", i.Rs1)
	case MAJ:
		return fmt.Sprintf("maj %s", i.Rd)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// Latency returns the result latency in cycles of the instruction under
// the simulator's pipeline model (values chosen to resemble a small
// in-order ARM core).
func (i Instr) Latency() int {
	switch i.Op {
	case MUL:
		return 3
	case DIV, REM:
		return 12
	case FADD, FSUB, FNEG, ITOF, FTOI, FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return 3
	case FMUL:
		return 4
	case FDIV:
		return 15
	case LDR, FLDR:
		return 2
	default:
		return 1
	}
}
