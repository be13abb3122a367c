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

	// f does not change from here on, so one instruction graph and one
	// vreg table serve every selection pass of the repair loop.
	cuts := opts.Cuts
	sel := newSelection(f, cuts, globalBase)
	repairs := 0
	for {
		vf, posToIR, err := sel.buildVF()
		if err != nil {
			return nil, err
		}
		as, err := regalloc.Allocate(vf, regalloc.Options{Idempotent: cuts != nil && !opts.RelaxedAlloc})
		if viol, ok := err.(*regalloc.LiveInViolation); ok {
			v := posToIR[viol.DefPos]
			if v == nil || cuts[v] {
				return nil, fmt.Errorf("codegen: unrepairable %v", viol)
			}
			sel.addCut(v)
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

// selection is what instruction selection derives once from a function
// that no longer changes, for every pass of the repair loop. Each pass
// selects the same instructions in the same order, so it names the same
// vregs: the table a pass fills serves the passes after it.
type selection struct {
	f          *ir.Func
	globalBase map[string]int64
	// g is f's instruction graph and cuts the cut set (both nil in a
	// conventional build); cut[id] marks the cuts by value ID.
	g    *core.InstrGraph
	cuts map[*ir.Value]bool
	cut  []bool
	// vregOf gives each pseudoregister name its vreg, numbered by first
	// use; byID caches the lookup by value ID (NoVReg until the value's
	// first use) and floatReg[r] marks float vregs.
	vregOf   map[string]regalloc.VReg
	byID     []regalloc.VReg
	floatReg []bool
	// allocaOff[id] is an alloca's word offset in the alloca area of
	// allocaWords words.
	allocaOff   []int64
	allocaWords int64
	// instrs counts f's instructions.
	instrs int
}

func newSelection(f *ir.Func, cuts map[*ir.Value]bool, globalBase map[string]int64) *selection {
	n := f.NumValues()
	s := &selection{f: f, globalBase: globalBase, cuts: cuts, byID: make([]regalloc.VReg, n), allocaOff: make([]int64, n)}
	for i := range s.byID {
		s.byID[i] = regalloc.NoVReg
	}
	defs := 0
	for _, b := range f.Blocks {
		s.instrs += len(b.Instrs)
		for _, v := range b.Instrs {
			if v.Defines() {
				defs++
			}
		}
	}
	s.vregOf = make(map[string]regalloc.VReg, defs)
	for _, v := range f.Entry().Instrs {
		if v.Op == ir.OpAlloca {
			s.allocaOff[v.ID] = s.allocaWords
			s.allocaWords += v.ConstInt
		}
	}
	if cuts != nil {
		s.g = core.BuildInstrGraph(f)
		s.cut = make([]bool, n)
		for v, c := range cuts {
			if c && v.ID < n {
				s.cut[v.ID] = true
			}
		}
	}
	return s
}

// addCut adds a cut before v, an instruction of f.
func (s *selection) addCut(v *ir.Value) {
	s.cuts[v] = true
	s.cut[v.ID] = true
}

// vreg returns the vreg holding val's pseudoregister.
func (s *selection) vreg(val *ir.Value) regalloc.VReg {
	if r := s.byID[val.ID]; r != regalloc.NoVReg {
		return r
	}
	r, ok := s.vregOf[val.Name]
	if !ok {
		r = regalloc.VReg(len(s.floatReg))
		s.floatReg = append(s.floatReg, val.Type == ir.F64)
		s.vregOf[val.Name] = r
	}
	s.byID[val.ID] = r
	return r
}

// buildVF runs instruction selection over the (destructed) function and
// registers region metadata for the cut set. posToIR maps each
// virtual-code position back to the IR instruction it implements (nil for
// marks).
func (s *selection) buildVF() (*regalloc.VFunc, []*ir.Value, error) {
	f, g, cuts := s.f, s.g, s.cuts
	vf := &regalloc.VFunc{Name: f.Name, Blocks: make([]regalloc.VBlock, 0, len(f.Blocks))}

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
	posToIR := make([]*ir.Value, 0, s.instrs+len(cuts)+1)
	gp := 0 // graph position of the next real instruction
	for bi, blk := range f.Blocks {
		// Each instruction selects to one virtual instruction; marks come
		// before the entry region's first instruction and before each cut.
		n := len(blk.Instrs)
		if g != nil {
			if bi == 0 {
				n++
			}
			for _, v := range blk.Instrs {
				if s.cut[v.ID] {
					n++
				}
			}
		}
		vb := regalloc.VBlock{Instrs: make([]regalloc.VInstr, 0, n), Succs: make([]int, 0, len(blk.Succs))}
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
			if g != nil && s.cut[v.ID] {
				code[gp].mark = emitMark()
			}
			start, n := len(posToIR), len(vb.Instrs)
			if err := s.selectInstr(v, &vb); err != nil {
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
		for _, succ := range blk.Succs {
			vb.Succs = append(vb.Succs, succ.Index)
		}
		vf.Blocks = append(vf.Blocks, vb)
	}
	vf.NumVRegs = len(s.floatReg)
	vf.FloatReg = s.floatReg
	vf.AllocaSlots = int(s.allocaWords)
	for _, p := range f.Params {
		vf.Params = append(vf.Params, s.vregOf[p.Name])
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
func (s *selection) selectInstr(v *ir.Value, vb *regalloc.VBlock) error {
	f, vregFor := s.f, s.vreg
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
		emit(regalloc.VInstr{Kind: regalloc.KAlloca, Rd: vregFor(v), Rs1: no, Rs2: no, Imm: s.allocaOff[v.ID]})
	case ir.OpGlobal:
		base, ok := s.globalBase[v.Aux]
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
