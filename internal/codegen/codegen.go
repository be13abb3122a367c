// Package codegen lowers IR functions to machine code for the isa target:
// instruction selection onto virtual registers, register allocation
// (package regalloc, with the §4.4 idempotence constraint when compiling
// an idempotent binary), spill/call/param expansion, and module linking.
//
// Region boundaries become MARK instructions — the machine-level
// equivalent of the paper's "mov rp, {addr}" (§6.3): one issue slot per
// boundary, at which the simulator commits buffered stores and records
// the restart point.
package codegen

import (
	"fmt"

	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/isa"
	"idemproc/internal/regalloc"
	"idemproc/internal/ssa"
)

// Options configure compilation of one function.
type Options struct {
	// Cuts, when non-nil, selects the idempotent compilation: MARK
	// instructions are emitted at each cut and region live-ins are
	// preserved by the allocator. Nil compiles the conventional binary.
	Cuts map[*ir.Value]bool
	// RelaxedAlloc emits the MARKs but skips the §4.4 allocation
	// constraint — the binary is functionally correct but NOT safely
	// re-executable. Only the regalloc ablation benchmark uses this, to
	// isolate the constraint's cost.
	RelaxedAlloc bool
}

// Compiled is the machine code of one function. Branch targets in Code
// are function-local instruction indices; Link rebases them.
type Compiled struct {
	Name string
	Code []isa.Instr
	// Marks counts region boundaries.
	Marks int
	// RepairCuts counts extra cuts inserted by the live-in repair loop.
	RepairCuts int
	// FrameWords is the stack frame size.
	FrameWords int
	// SpillLoads/SpillStores are static counts, for the Fig. 10 analysis.
	SpillLoads, SpillStores int
}

var opMap = map[ir.Op]isa.Op{
	ir.OpAdd: isa.ADD, ir.OpSub: isa.SUB, ir.OpMul: isa.MUL, ir.OpDiv: isa.DIV,
	ir.OpRem: isa.REM, ir.OpAnd: isa.AND, ir.OpOr: isa.ORR, ir.OpXor: isa.EOR,
	ir.OpShl: isa.LSL, ir.OpShr: isa.ASR,
	ir.OpNeg: isa.NEG, ir.OpNot: isa.MVN,
	ir.OpFAdd: isa.FADD, ir.OpFSub: isa.FSUB, ir.OpFMul: isa.FMUL, ir.OpFDiv: isa.FDIV,
	ir.OpFNeg: isa.FNEG,
	ir.OpEq:   isa.SEQ, ir.OpNe: isa.SNE, ir.OpLt: isa.SLT, ir.OpLe: isa.SLE,
	ir.OpGt: isa.SGT, ir.OpGe: isa.SGE,
	ir.OpFEq: isa.FSEQ, ir.OpFNe: isa.FSNE, ir.OpFLt: isa.FSLT, ir.OpFLe: isa.FSLE,
	ir.OpFGt: isa.FSGT, ir.OpFGe: isa.FSGE,
	ir.OpIToF: isa.ITOF, ir.OpFToI: isa.FTOI,
}

// Compile lowers f. f is mutated (SSA destruction); callers compile a
// dedicated copy. globalBase maps global names to absolute addresses.
//
// For idempotent builds, compilation may iterate: if the allocator
// reports a region live-in redefined inside its region (a loop-carried φ
// arrangement our allocator cannot double-buffer, see regalloc), an extra
// cut is inserted before the offending definition — a strictly finer
// region decomposition, which preserves antidependence separation — and
// selection re-runs. This converges because every retry adds a cut at a
// previously uncut instruction.
func Compile(f *ir.Func, globalBase map[string]int64, opts Options) (*Compiled, error) {
	ssa.Destruct(f)
	f.Renumber()

	// f does not change from here on, so one instruction graph serves
	// every selection pass of the repair loop.
	var g *core.InstrGraph
	cuts := opts.Cuts
	if cuts != nil {
		g = core.BuildInstrGraph(f)
	}
	repairs := 0
	for {
		vf, posToIR, err := buildVF(f, g, cuts, globalBase)
		if err != nil {
			return nil, err
		}
		as, err := regalloc.Allocate(vf, regalloc.Options{Idempotent: cuts != nil && !opts.RelaxedAlloc})
		if viol, ok := err.(*regalloc.LiveInViolation); ok {
			v := posToIR[viol.DefPos]
			if v == nil || cuts[v] {
				return nil, fmt.Errorf("codegen: unrepairable %v", viol)
			}
			cuts[v] = true
			repairs++
			if repairs > 256 {
				return nil, fmt.Errorf("codegen: repair loop diverged in @%s", f.Name)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		code, marks, err := expand(vf, as)
		if err != nil {
			return nil, err
		}
		return &Compiled{
			Name:        f.Name,
			Code:        code,
			Marks:       marks,
			RepairCuts:  repairs,
			FrameWords:  1 + vf.AllocaSlots + as.FrameSlots,
			SpillLoads:  as.SpillLoads,
			SpillStores: as.SpillStores,
		}, nil
	}
}

// buildVF runs instruction selection over the (destructed) function and
// registers region metadata. g is f's instruction graph (nil when cuts is
// nil). posToIR maps each virtual-code position back to the IR
// instruction it implements (nil for marks).
func buildVF(f *ir.Func, g *core.InstrGraph, cuts map[*ir.Value]bool, globalBase map[string]int64) (*regalloc.VFunc, []*ir.Value, error) {
	vf := &regalloc.VFunc{Name: f.Name}
	vregOf := map[string]regalloc.VReg{}
	var floatReg []bool
	newVReg := func(float bool) regalloc.VReg {
		v := regalloc.VReg(len(floatReg))
		floatReg = append(floatReg, float)
		return v
	}
	vregFor := func(val *ir.Value) regalloc.VReg {
		if v, ok := vregOf[val.Name]; ok {
			return v
		}
		v := newVReg(val.Type == ir.F64)
		vregOf[val.Name] = v
		return v
	}

	// Assign alloca offsets.
	allocaOff := map[*ir.Value]int64{}
	var allocaWords int64
	for _, v := range f.Entry().Instrs {
		if v.Op == ir.OpAlloca {
			allocaOff[v] = allocaWords
			allocaWords += v.ConstInt
		}
	}

	// Selection. Positions are global linear indices (block order,
	// instruction order); posToIR grows by one entry per emitted
	// instruction, so its length is the next position. In an idempotent
	// build, code[p] records, for the instruction at graph position p, the
	// position of the mark that opens its region (when it heads one) and
	// the span of the code selected for it, so regions can be registered
	// once selection is done.
	type span struct{ mark, start, end int }
	var code []span
	if g != nil {
		code = make([]span, len(g.Instrs))
	}
	var posToIR []*ir.Value
	gp := 0 // graph position of the next real instruction
	for _, blk := range f.Blocks {
		vb := regalloc.VBlock{}
		emitMark := func() int {
			vb.Instrs = append(vb.Instrs, regalloc.VInstr{Kind: regalloc.KMark, Rd: regalloc.NoVReg, Rs1: regalloc.NoVReg, Rs2: regalloc.NoVReg})
			posToIR = append(posToIR, nil)
			return len(posToIR) - 1
		}
		for _, v := range blk.Instrs {
			inGraph := g != nil && gp < len(g.Instrs) && g.Instrs[gp] == v
			// The entry region's mark goes before graph position 0, the
			// first instruction after the parameter moves: the moves re-read
			// the argument registers, so restarting before them would
			// require the caller's registers intact; restarting after them
			// only requires the param vregs, which the §4.4 constraint
			// preserves.
			if inGraph && gp == 0 {
				code[gp].mark = emitMark()
			}
			if cuts[v] {
				code[gp].mark = emitMark()
			}
			start, n := len(posToIR), len(vb.Instrs)
			if err := selectInstr(f, v, &vb, vregFor, allocaOff, globalBase); err != nil {
				return nil, nil, err
			}
			for range vb.Instrs[n:] {
				posToIR = append(posToIR, v)
			}
			if inGraph {
				code[gp].start, code[gp].end = start, len(posToIR)
				gp++
			}
		}
		for _, s := range blk.Succs {
			vb.Succs = append(vb.Succs, s.Index)
		}
		vf.Blocks = append(vf.Blocks, vb)
	}
	vf.NumVRegs = len(floatReg)
	vf.FloatReg = floatReg
	vf.AllocaSlots = int(allocaWords)
	for _, p := range f.Params {
		vf.Params = append(vf.Params, vregOf[p.Name])
	}

	// Register regions with the allocator (idempotent mode only).
	if g != nil {
		g.EachRegion(cuts, func(header int, members []int) {
			n := 0
			for _, p := range members {
				n += code[p].end - code[p].start
			}
			reg := regalloc.Region{Header: code[header].mark, Positions: make([]int, 0, n)}
			for _, p := range members {
				for q := code[p].start; q < code[p].end; q++ {
					reg.Positions = append(reg.Positions, q)
				}
			}
			vf.Regions = append(vf.Regions, reg)
		})
	}
	return vf, posToIR, nil
}

// selectInstr emits virtual code for one IR instruction.
func selectInstr(f *ir.Func, v *ir.Value, vb *regalloc.VBlock,
	vregFor func(*ir.Value) regalloc.VReg,
	allocaOff map[*ir.Value]int64, globalBase map[string]int64) error {

	emit := func(in regalloc.VInstr) { vb.Instrs = append(vb.Instrs, in) }
	no := regalloc.NoVReg

	switch v.Op {
	case ir.OpParam:
		emit(regalloc.VInstr{Kind: regalloc.KParam, Rd: vregFor(v), Rs1: no, Rs2: no, Imm: v.ConstInt})
	case ir.OpConst:
		if v.Type == ir.F64 {
			emit(regalloc.VInstr{Op: isa.FMOVI, Rd: vregFor(v), Rs1: no, Rs2: no, FImm: v.ConstFloat})
		} else {
			emit(regalloc.VInstr{Op: isa.MOVI, Rd: vregFor(v), Rs1: no, Rs2: no, Imm: v.ConstInt})
		}
	case ir.OpCopy:
		op := isa.MOV
		if v.Type == ir.F64 {
			op = isa.FMOV
		}
		emit(regalloc.VInstr{Op: op, Rd: vregFor(v), Rs1: vregFor(v.Args[0]), Rs2: no})
	case ir.OpAlloca:
		emit(regalloc.VInstr{Kind: regalloc.KAlloca, Rd: vregFor(v), Rs1: no, Rs2: no, Imm: allocaOff[v]})
	case ir.OpGlobal:
		base, ok := globalBase[v.Aux]
		if !ok {
			return fmt.Errorf("codegen: @%s references unknown global %q", f.Name, v.Aux)
		}
		emit(regalloc.VInstr{Op: isa.MOVI, Rd: vregFor(v), Rs1: no, Rs2: no, Imm: base})
	case ir.OpLoad:
		op := isa.LDR
		if v.Type == ir.F64 {
			op = isa.FLDR
		}
		emit(regalloc.VInstr{Op: op, Rd: vregFor(v), Rs1: vregFor(v.Args[0]), Rs2: no})
	case ir.OpStore:
		op := isa.STR
		if v.Args[1].Type == ir.F64 {
			op = isa.FSTR
		}
		emit(regalloc.VInstr{Op: op, Rd: no, Rs1: vregFor(v.Args[0]), Rs2: vregFor(v.Args[1])})
	case ir.OpCall:
		in := regalloc.VInstr{Kind: regalloc.KCall, Rd: no, Rs1: no, Rs2: no, Sym: v.Aux}
		for _, a := range v.Args {
			in.Args = append(in.Args, vregFor(a))
		}
		if v.Type != ir.Void {
			in.Rd = vregFor(v)
		}
		emit(in)
	case ir.OpBr:
		emit(regalloc.VInstr{Op: isa.B, Rd: no, Rs1: no, Rs2: no, Target: v.Block.Succs[0].Index})
	case ir.OpCondBr:
		emit(regalloc.VInstr{Op: isa.CBNZ, Rd: no, Rs1: vregFor(v.Args[0]), Rs2: no,
			Target: v.Block.Succs[0].Index, Target2: v.Block.Succs[1].Index})
	case ir.OpRet:
		in := regalloc.VInstr{Kind: regalloc.KRet, Rd: no, Rs1: no, Rs2: no}
		if len(v.Args) > 0 {
			in.Rs1 = vregFor(v.Args[0])
		}
		emit(in)
	case ir.OpPhi:
		return fmt.Errorf("codegen: φ survived SSA destruction: %s", v.LongString())
	default:
		op, ok := opMap[v.Op]
		if !ok {
			return fmt.Errorf("codegen: unhandled op %s", v.Op)
		}
		in := regalloc.VInstr{Op: op, Rd: vregFor(v), Rs1: vregFor(v.Args[0]), Rs2: no}
		if len(v.Args) > 1 {
			in.Rs2 = vregFor(v.Args[1])
		}
		emit(in)
	}
	return nil
}
