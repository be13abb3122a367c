package isa

import (
	"slices"
	"strings"
	"testing"
)

func TestRegNames(t *testing.T) {
	cases := map[Reg]string{
		R0: "r0", R10: "r10", SP: "sp", LR: "lr", RP: "rp",
		F(0): "f0", F(31): "f31",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
	if !F(3).IsFloat() || SP.IsFloat() {
		t.Fatal("IsFloat wrong")
	}
}

func TestInstrClassification(t *testing.T) {
	if !(Instr{Op: LDR}).IsMem() || !(Instr{Op: FSTR}).IsMem() {
		t.Fatal("memory ops misclassified")
	}
	if (Instr{Op: ADD}).IsMem() {
		t.Fatal("ADD is not a memory op")
	}
	for _, op := range []Op{B, CBZ, CBNZ, CALL, RET} {
		if !(Instr{Op: op}).IsBranch() {
			t.Fatalf("%v should be a branch", op)
		}
	}
	if (Instr{Op: MARK}).IsBranch() {
		t.Fatal("MARK is not a branch")
	}
}

func TestLatencies(t *testing.T) {
	if (Instr{Op: ADD}).Latency() != 1 {
		t.Fatal("ALU latency")
	}
	if (Instr{Op: DIV}).Latency() <= (Instr{Op: MUL}).Latency() {
		t.Fatal("DIV should be slower than MUL")
	}
	if (Instr{Op: LDR}).Latency() < 2 {
		t.Fatal("loads have latency ≥ 2")
	}
	if (Instr{Op: FDIV}).Latency() <= (Instr{Op: FMUL}).Latency() {
		t.Fatal("FDIV should be slower than FMUL")
	}
}

func TestAssemblyStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MOVI, Rd: R1, Imm: 42}, "movi r1, #42"},
		{Instr{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3}, "add r1, r2, r3"},
		{Instr{Op: LDR, Rd: R1, Rs1: SP, Imm: 3}, "ldr r1, [sp, #3]"},
		{Instr{Op: STR, Rs1: SP, Rs2: LR, Imm: 0}, "str lr, [sp, #0]"},
		{Instr{Op: CBZ, Rs1: R4, Imm: 17}, "cbz r4, 17"},
		{Instr{Op: MARK}, "mark"},
		{Instr{Op: CHECK, Rs1: R0}, "check r0"},
		{Instr{Op: FMOVI, Rd: F(2), FImm: 1.5}, "fmovi f2, #1.5"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains((Instr{Op: CALL, Sym: "f", Imm: 9}).String(), "<f>") {
		t.Fatal("call string lacks symbol")
	}
}

// TestOperandRoles pins the registers every opcode reads, in operand
// order, and whether it writes Rd, for each op from NOP to MAJ and for
// opcodes outside the ISA (a corrupt artifact can carry any byte), and
// the reserved registers.
func TestOperandRoles(t *testing.T) {
	groups := []struct {
		ops    []Op
		reads  []Reg // for Rd = r3, Rs1 = r1, Rs2 = r2
		writes bool
	}{
		{[]Op{NOP, B, CALL, HALT, MARK}, nil, false},
		{[]Op{MOVI, FMOVI}, nil, true},
		{[]Op{MOV, FMOV, ADDI, NEG, MVN, FNEG, ITOF, FTOI, LDR, FLDR}, []Reg{R1}, true},
		{[]Op{ADD, SUB, MUL, DIV, REM, AND, ORR, EOR, LSL, ASR,
			SEQ, SNE, SLT, SLE, SGT, SGE, FADD, FSUB, FMUL, FDIV,
			FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE}, []Reg{R1, R2}, true},
		{[]Op{STR, FSTR}, []Reg{R1, R2}, false},
		{[]Op{CBZ, CBNZ, CHECK}, []Reg{R1}, false},
		{[]Op{RET}, []Reg{LR}, false},
		{[]Op{MAJ}, []Reg{R3}, false},
		{[]Op{MAJ + 1, 200, 255}, []Reg{R1}, true},
	}
	seen := map[Op]bool{}
	for _, g := range groups {
		for _, op := range g.ops {
			seen[op] = true
			regs, n := Instr{Op: op, Rd: R3, Rs1: R1, Rs2: R2}.Reads()
			if got := regs[:n]; !slices.Equal(got, g.reads) {
				t.Errorf("%v reads %v, want %v", op, got, g.reads)
			}
			if got := op.WritesRd(); got != g.writes {
				t.Errorf("%v.WritesRd() = %v, want %v", op, got, g.writes)
			}
		}
	}
	for op := NOP; op <= MAJ; op++ {
		if !seen[op] {
			t.Errorf("%v has no pinned roles", op)
		}
	}
	for r := Reg(0); r < NumRegs; r++ {
		if want := r == SP || r == LR || r == RP; r.Reserved() != want {
			t.Errorf("%v.Reserved() = %v, want %v", r, r.Reserved(), want)
		}
	}
}
