// Package ir defines the load-store intermediate representation used by the
// idempotent-processing compiler.
//
// The IR mirrors the representation the paper's LLVM pass operates on: a
// control flow graph of basic blocks whose instructions read and write an
// unbounded set of pseudoregisters (Values) and access memory exclusively
// through explicit Load and Store instructions. Memory is word addressed:
// one address unit holds one 64-bit value. Stack storage is created with
// Alloca, global storage with module-level globals; both yield addresses
// that flow through pseudoregisters.
//
// Functions may be in or out of SSA form. Package ssa converts to SSA
// (required by the region construction algorithm, per §4.1 of the paper)
// and back out before code generation.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the type of a Value. The IR is deliberately minimal: 64-bit
// integers (which double as addresses and booleans) and 64-bit floats.
type Type uint8

const (
	// Void is the type of instructions that produce no value (Store, Br,
	// CondBr, Ret, and calls to void functions).
	Void Type = iota
	// I64 is a 64-bit integer, also used for addresses and booleans.
	I64
	// F64 is a 64-bit IEEE float.
	F64
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I64:
		return "i64"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Op identifies the operation an instruction performs.
type Op uint8

const (
	// OpInvalid is the zero Op; it never appears in a well-formed function.
	OpInvalid Op = iota

	// OpParam is a function parameter. Parameters appear at the start of
	// the entry block in declaration order; ConstInt holds the index.
	OpParam
	// OpConst is an integer or float constant, in ConstInt or ConstFloat
	// according to Type.
	OpConst

	// Integer arithmetic. Args[0] op Args[1]; OpNeg and OpNot are unary.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Conversions.
	OpIToF
	OpFToI

	// Integer comparisons, producing 0 or 1 as I64.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Float comparisons, producing 0 or 1 as I64.
	OpFEq
	OpFNe
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// OpAlloca reserves ConstInt words of local stack storage and yields
	// its address. Allocas must appear in the entry block.
	OpAlloca
	// OpGlobal yields the address of the module global named Aux.
	OpGlobal
	// OpLoad reads memory at address Args[0].
	OpLoad
	// OpStore writes Args[1] to memory at address Args[0].
	OpStore
	// OpCall calls function Aux with Args. Type is the callee's result
	// type (Void for void functions).
	OpCall

	// OpPhi is an SSA φ-node. Args are aligned with Block.Preds.
	OpPhi
	// OpCopy is a register move: the value of Args[0].
	OpCopy

	// Terminators. Every block ends with exactly one of these.

	// OpBr is an unconditional branch to Block.Succs[0].
	OpBr
	// OpCondBr branches on Args[0]: nonzero to Block.Succs[0], zero to
	// Block.Succs[1].
	OpCondBr
	// OpRet returns Args[0] (or nothing if Args is empty).
	OpRet
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpParam:   "param",
	OpConst:   "const",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpDiv:     "div",
	OpRem:     "rem",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpShl:     "shl",
	OpShr:     "shr",
	OpNeg:     "neg",
	OpNot:     "not",
	OpFAdd:    "fadd",
	OpFSub:    "fsub",
	OpFMul:    "fmul",
	OpFDiv:    "fdiv",
	OpFNeg:    "fneg",
	OpIToF:    "i2f",
	OpFToI:    "f2i",
	OpEq:      "eq",
	OpNe:      "ne",
	OpLt:      "lt",
	OpLe:      "le",
	OpGt:      "gt",
	OpGe:      "ge",
	OpFEq:     "feq",
	OpFNe:     "fne",
	OpFLt:     "flt",
	OpFLe:     "fle",
	OpFGt:     "fgt",
	OpFGe:     "fge",
	OpAlloca:  "alloca",
	OpGlobal:  "global",
	OpLoad:    "load",
	OpStore:   "store",
	OpCall:    "call",
	OpPhi:     "phi",
	OpCopy:    "copy",
	OpBr:      "br",
	OpCondBr:  "condbr",
	OpRet:     "ret",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpBr || op == OpCondBr || op == OpRet
}

// HasSideEffects reports whether the instruction must be preserved even if
// its result is unused (memory writes, calls, terminators).
func (op Op) HasSideEffects() bool {
	return op == OpStore || op == OpCall || op.IsTerminator()
}

// Value is an IR instruction and, when Type != Void, the pseudoregister it
// defines. A Value out of SSA form may be redefined: two instructions may
// share the same Name, in which case the later definition overwrites the
// earlier pseudoregister (this is how the frontend emits straight-line
// code; ssa.Build renames to true SSA).
type Value struct {
	// ID is unique within the function and stable across passes. Every
	// value of f is made by f.NewValue, which numbers them from 0, so
	// every ID is below f.NumValues(): analyses index slices by it.
	ID int
	// Name is the pseudoregister name ("t3"). Values with equal Name
	// denote the same pseudoregister when the function is not in SSA form.
	Name string
	Op   Op
	Type Type
	Args []*Value
	// Block is the containing basic block.
	Block *Block

	// ConstInt holds the constant for OpConst (I64), the size in words
	// for OpAlloca, and the parameter index for OpParam.
	ConstInt int64
	// ConstFloat holds the constant for OpConst with Type F64.
	ConstFloat float64
	// Aux holds the symbol name for OpGlobal and OpCall.
	Aux string
}

// Defines reports whether v defines a pseudoregister.
func (v *Value) Defines() bool { return v.Type != Void }

// String returns a short reference like "%t3" or the printed instruction
// for void instructions.
func (v *Value) String() string {
	if v.Defines() {
		return "%" + v.Name
	}
	return v.Op.String() + "#" + strconv.Itoa(v.ID)
}

// LongString prints the full instruction, e.g. "%t3 = add %t1, %t2".
func (v *Value) LongString() string {
	var b strings.Builder
	if v.Defines() {
		fmt.Fprintf(&b, "%%%s = ", v.Name)
	}
	switch v.Op {
	case OpConst:
		if v.Type == F64 {
			fmt.Fprintf(&b, "const %g", v.ConstFloat)
		} else {
			fmt.Fprintf(&b, "const %d", v.ConstInt)
		}
	case OpParam:
		fmt.Fprintf(&b, "param %d", v.ConstInt)
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %d", v.ConstInt)
	case OpGlobal:
		fmt.Fprintf(&b, "global @%s", v.Aux)
	case OpCall:
		fmt.Fprintf(&b, "call @%s(", v.Aux)
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	case OpPhi:
		b.WriteString("phi ")
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			pred := "?"
			if v.Block != nil && i < len(v.Block.Preds) {
				pred = v.Block.Preds[i].Name
			}
			fmt.Fprintf(&b, "[%s: %s]", pred, a)
		}
	case OpBr:
		fmt.Fprintf(&b, "br %s", v.Block.Succs[0].Name)
	case OpCondBr:
		fmt.Fprintf(&b, "condbr %s, %s, %s", v.Args[0], v.Block.Succs[0].Name, v.Block.Succs[1].Name)
	case OpRet:
		if len(v.Args) > 0 {
			fmt.Fprintf(&b, "ret %s", v.Args[0])
		} else {
			b.WriteString("ret")
		}
	default:
		b.WriteString(v.Op.String())
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + a.String())
		}
	}
	return b.String()
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Preds and Succs encode the CFG; for OpPhi instructions,
// Args[i] is the value incoming from Preds[i].
type Block struct {
	// Name is unique within the function ("b0", "b1", ...).
	Name string
	// Index is the position in Func.Blocks, refreshed by Func.Renumber.
	Index  int
	Instrs []*Value
	Preds  []*Block
	Succs  []*Block
	Func   *Func
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated.
func (b *Block) Terminator() *Value {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Phis returns the block's leading φ-nodes.
func (b *Block) Phis() []*Value {
	var n int
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// ReplacePred replaces predecessor old with new, keeping φ arguments
// aligned (their order keys off predecessor position, which is unchanged).
func (b *Block) ReplacePred(old, new *Block) {
	i := b.PredIndex(old)
	if i < 0 {
		panic(fmt.Sprintf("ir: %s is not a predecessor of %s", old.Name, b.Name))
	}
	b.Preds[i] = new
}

// ReplaceSucc replaces successor old with new.
func (b *Block) ReplaceSucc(old, new *Block) {
	for i, s := range b.Succs {
		if s == old {
			b.Succs[i] = new
			return
		}
	}
	panic(fmt.Sprintf("ir: %s is not a successor of %s", old.Name, b.Name))
}

// RemovePred removes predecessor p and the corresponding φ arguments.
func (b *Block) RemovePred(p *Block) {
	i := b.PredIndex(p)
	if i < 0 {
		panic(fmt.Sprintf("ir: %s is not a predecessor of %s", p.Name, b.Name))
	}
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	for _, phi := range b.Phis() {
		phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
	}
}

// InsertBefore inserts v immediately before pos in the block. pos must be
// an instruction of b.
func (b *Block) InsertBefore(v *Value, pos *Value) {
	for i, in := range b.Instrs {
		if in == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = v
			v.Block = b
			return
		}
	}
	panic("ir: InsertBefore position not found")
}

// Func is a function: a CFG of basic blocks. Blocks[0] is the entry.
type Func struct {
	Name string
	// Params are the OpParam values, in declaration order. They also
	// appear at the head of the entry block.
	Params []*Value
	// ResultType is the function's return type.
	ResultType Type
	Blocks     []*Block
	Module     *Module

	nextID    int
	nextName  int
	nextBlock int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh, empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{Name: "b" + strconv.Itoa(f.nextBlock), Index: len(f.Blocks), Func: f}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValue creates an instruction without inserting it into a block. The
// caller must append or insert it and, if it defines a pseudoregister,
// Name is freshly generated unless overridden.
func (f *Func) NewValue(op Op, t Type, args ...*Value) *Value {
	v := &Value{ID: f.nextID, Op: op, Type: t, Args: args}
	f.nextID++
	if t != Void {
		v.Name = f.FreshName()
	}
	return v
}

// NumValues bounds the IDs of f's values: every value NewValue has made
// for f, in a block or not, has an ID below it.
func (f *Func) NumValues() int { return f.nextID }

// FreshName returns a new unique pseudoregister name.
func (f *Func) FreshName() string {
	n := "t" + strconv.Itoa(f.nextName)
	f.nextName++
	return n
}

// ClaimName records that name is in use, so FreshName never returns it.
// The parser uses this to honour source-level names like "t12".
func (f *Func) ClaimName(name string) {
	if len(name) < 2 || name[0] != 't' || strings.TrimLeft(name[1:], "0123456789") != "" {
		return // not of FreshName's form
	}
	if n, err := strconv.Atoi(name[1:]); err == nil && n >= f.nextName {
		f.nextName = n + 1
	}
}

// Renumber refreshes Block.Index to match position in f.Blocks.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry, patching
// predecessor lists and φ arguments of surviving blocks.
func (f *Func) RemoveUnreachable() {
	f.Renumber()
	reached := make([]bool, len(f.Blocks))
	stack := []*Block{f.Entry()}
	reached[0] = true
	n := 1
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reached[s.Index] {
				reached[s.Index] = true
				n++
				stack = append(stack, s)
			}
		}
	}
	if n == len(f.Blocks) {
		return
	}
	kept := make([]*Block, 0, n)
	for _, b := range f.Blocks {
		if !reached[b.Index] {
			for _, s := range b.Succs {
				if reached[s.Index] {
					s.RemovePred(b)
				}
			}
			continue
		}
		kept = append(kept, b)
	}
	f.Blocks = kept
	f.Renumber()
}

// GlobalVar is a module-level variable occupying Size words; Init, if
// shorter than Size, is zero-extended.
type GlobalVar struct {
	Name string
	Size int64
	Init []int64
}

// Module is a set of functions and global variables.
type Module struct {
	Funcs   []*Func
	Globals []*GlobalVar
}

// NewModule returns an empty module.
func NewModule() *Module { return &Module{} }

// NewFunc creates a function with the given parameter types and appends it
// to the module. Parameters are materialized as OpParam instructions in a
// fresh entry block.
func (m *Module) NewFunc(name string, result Type, paramTypes ...Type) *Func {
	f := &Func{Name: name, ResultType: result, Module: m}
	entry := f.NewBlock()
	for i, pt := range paramTypes {
		p := f.NewValue(OpParam, pt)
		p.ConstInt = int64(i)
		p.Block = entry
		entry.Instrs = append(entry.Instrs, p)
		f.Params = append(f.Params, p)
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// Func returns the function named name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global named name, or nil.
func (m *Module) Global(name string) *GlobalVar {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddGlobal declares a global variable of size words.
func (m *Module) AddGlobal(name string, size int64, init []int64) *GlobalVar {
	g := &GlobalVar{Name: name, Size: size, Init: init}
	m.Globals = append(m.Globals, g)
	return g
}
