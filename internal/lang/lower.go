package lang

import (
	"fmt"
	"strconv"

	"idemproc/internal/ir"
)

// Compile parses and lowers idc source to an IR module.
func Compile(src string) (*ir.Module, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return Lower(prog)
}

// MustCompile is Compile that panics on error (for embedded workloads).
func MustCompile(src string) *ir.Module {
	m, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return m
}

// Lower translates a parsed program into IR. Scalar locals and parameters
// become mutable named pseudoregisters (ssa.Build later renames them into
// SSA); local arrays become allocas; globals live in module memory.
func Lower(prog *Program) (*ir.Module, error) {
	m := ir.NewModule()
	funcs := map[string]*FuncDecl{}
	for _, f := range prog.Funcs {
		if funcs[f.Name] != nil {
			return nil, errf(f.Line, "function %q redefined", f.Name)
		}
		funcs[f.Name] = f
	}
	globals := map[string]*GlobalDecl{}
	for _, g := range prog.Globals {
		if globals[g.Name] != nil {
			return nil, errf(g.Line, "global %q redefined", g.Name)
		}
		globals[g.Name] = g
		init := make([]int64, len(g.Init))
		for i, w := range g.Init {
			init[i] = int64(w)
		}
		m.AddGlobal(g.Name, g.Size, init)
	}
	for _, fd := range prog.Funcs {
		if err := lowerFunc(m, fd, funcs, globals); err != nil {
			return nil, err
		}
	}
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("lang: lowering produced invalid module: %w", err)
	}
	return m, nil
}

func irType(t Ty) ir.Type {
	if t == TyFloat {
		return ir.F64
	}
	return ir.I64
}

// binding is one name in scope.
type binding struct {
	ty Ty
	// val is a definition of the variable's pseudoregister (scalar), the
	// alloca (array), or nil for globals (resolved via lw.globals).
	val     *ir.Value
	isArray bool
	global  *GlobalDecl
}

type loopCtx struct {
	breakTo, continueTo *ir.Block
}

type lowerer struct {
	m       *ir.Module
	fd      *FuncDecl
	bd      *ir.Builder
	funcs   map[string]*FuncDecl
	globals map[string]*GlobalDecl
	scopes  []map[string]*binding
	loops   []loopCtx
	allocas map[*DeclS]*ir.Value
	tmpN    int
}

func lowerFunc(m *ir.Module, fd *FuncDecl, funcs map[string]*FuncDecl, globals map[string]*GlobalDecl) error {
	ptypes := make([]ir.Type, len(fd.Params))
	for i, p := range fd.Params {
		ptypes[i] = irType(p.Ty)
	}
	var rt ir.Type = ir.Void
	if fd.Ret != TyVoid {
		rt = irType(fd.Ret)
	}
	f := m.NewFunc(fd.Name, rt, ptypes...)
	lw := &lowerer{
		m: m, fd: fd, bd: ir.NewBuilder(f),
		funcs: funcs, globals: globals,
		allocas: map[*DeclS]*ir.Value{},
	}
	lw.pushScope()

	// Local arrays must be allocated in the entry block: pre-scan.
	var scan func(s Stmt)
	scan = func(s Stmt) {
		switch st := s.(type) {
		case *DeclS:
			if st.ArrSize >= 0 {
				lw.allocas[st] = lw.bd.Alloca(st.ArrSize)
			}
		case *BlockS:
			for _, x := range st.Stmts {
				scan(x)
			}
		case *IfS:
			scan(st.Then)
			if st.Else != nil {
				scan(st.Else)
			}
		case *WhileS:
			scan(st.Body)
		case *ForS:
			if st.Init != nil {
				scan(st.Init)
			}
			scan(st.Body)
		}
	}
	scan(fd.Body)

	// Parameters become mutable locals.
	for i, p := range fd.Params {
		v := lw.bd.Assign("v."+p.Name, f.Params[i])
		lw.bind(p.Name, &binding{ty: p.Ty, val: v})
	}

	if err := lw.block(fd.Body); err != nil {
		return err
	}
	// Implicit return on fallthrough.
	if lw.bd.Cur.Terminator() == nil {
		switch fd.Ret {
		case TyVoid:
			lw.bd.Ret()
		case TyFloat:
			lw.bd.Ret(lw.bd.ConstFloat(0))
		default:
			lw.bd.Ret(lw.bd.ConstInt(0))
		}
	}
	f.RemoveUnreachable()
	return nil
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]*binding{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) bind(name string, b *binding) {
	lw.scopes[len(lw.scopes)-1][name] = b
}

func (lw *lowerer) lookup(name string) *binding {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if b, ok := lw.scopes[i][name]; ok {
			return b
		}
	}
	if g, ok := lw.globals[name]; ok {
		return &binding{ty: g.Elem, global: g, isArray: g.IsArr}
	}
	return nil
}

// fresh returns a unique frontend temp name.
func (lw *lowerer) fresh(prefix string) string {
	lw.tmpN++
	return prefix + "." + strconv.Itoa(lw.tmpN)
}

func (lw *lowerer) block(b *BlockS) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if lw.bd.Cur.Terminator() != nil {
			// Unreachable trailing code (after return/break): drop it.
			break
		}
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockS:
		return lw.block(st)

	case *DeclS:
		if st.ArrSize >= 0 {
			lw.bind(st.Name, &binding{ty: st.Ty.Ptr(), val: lw.allocas[st], isArray: true})
			return nil
		}
		var init *ir.Value
		if st.Init != nil {
			v, ty, err := lw.expr(st.Init)
			if err != nil {
				return err
			}
			init, err = lw.coerce(v, ty, st.Ty, st.Line)
			if err != nil {
				return err
			}
		} else if st.Ty == TyFloat {
			init = lw.bd.ConstFloat(0)
		} else {
			init = lw.bd.ConstInt(0)
		}
		def := lw.bd.Assign("v."+st.Name+lw.fresh(""), init)
		lw.bind(st.Name, &binding{ty: st.Ty, val: def})
		return nil

	case *AssignS:
		rhs, rty, err := lw.expr(st.Rhs)
		if err != nil {
			return err
		}
		switch lhs := st.Lhs.(type) {
		case *Ident:
			b := lw.lookup(lhs.Name)
			if b == nil {
				return errf(st.Line, "undefined variable %q", lhs.Name)
			}
			v, err := lw.coerce(rhs, rty, b.ty, st.Line)
			if err != nil {
				return err
			}
			if b.global != nil {
				if b.isArray {
					return errf(st.Line, "cannot assign to array %q", lhs.Name)
				}
				addr := lw.bd.Global(b.global.Name)
				lw.bd.Store(addr, v)
				return nil
			}
			if b.isArray {
				return errf(st.Line, "cannot assign to array %q", lhs.Name)
			}
			lw.bd.Assign(b.val.Name, v)
			return nil
		case *Index:
			addr, elem, err := lw.indexAddr(lhs)
			if err != nil {
				return err
			}
			v, err := lw.coerce(rhs, rty, elem, st.Line)
			if err != nil {
				return err
			}
			lw.bd.Store(addr, v)
			return nil
		}
		return errf(st.Line, "bad assignment target")

	case *ExprS:
		_, _, err := lw.expr(st.X)
		return err

	case *RetS:
		if st.X == nil {
			if lw.fd.Ret != TyVoid {
				return errf(st.Line, "missing return value")
			}
			lw.bd.Ret()
			return nil
		}
		v, ty, err := lw.expr(st.X)
		if err != nil {
			return err
		}
		v, err = lw.coerce(v, ty, lw.fd.Ret, st.Line)
		if err != nil {
			return err
		}
		lw.bd.Ret(v)
		return nil

	case *IfS:
		cond, cty, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		if cty == TyFloat {
			return errf(st.Line, "if condition must be integer")
		}
		f := lw.bd.Func
		thenB := f.NewBlock()
		joinB := f.NewBlock()
		elseB := joinB
		if st.Else != nil {
			elseB = f.NewBlock()
		}
		lw.bd.CondBr(cond, thenB, elseB)
		lw.bd.SetBlock(thenB)
		if err := lw.block(st.Then); err != nil {
			return err
		}
		if lw.bd.Cur.Terminator() == nil {
			lw.bd.Br(joinB)
		}
		if st.Else != nil {
			lw.bd.SetBlock(elseB)
			if err := lw.block(st.Else); err != nil {
				return err
			}
			if lw.bd.Cur.Terminator() == nil {
				lw.bd.Br(joinB)
			}
		}
		lw.bd.SetBlock(joinB)
		return nil

	case *WhileS:
		f := lw.bd.Func
		head := f.NewBlock()
		body := f.NewBlock()
		exit := f.NewBlock()
		lw.bd.Br(head)
		lw.bd.SetBlock(head)
		cond, cty, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		if cty == TyFloat {
			return errf(st.Line, "while condition must be integer")
		}
		lw.bd.CondBr(cond, body, exit)
		lw.bd.SetBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakTo: exit, continueTo: head})
		if err := lw.block(st.Body); err != nil {
			return err
		}
		lw.loops = lw.loops[:len(lw.loops)-1]
		if lw.bd.Cur.Terminator() == nil {
			lw.bd.Br(head)
		}
		lw.bd.SetBlock(exit)
		return nil

	case *ForS:
		lw.pushScope()
		defer lw.popScope()
		if st.Init != nil {
			if err := lw.stmt(st.Init); err != nil {
				return err
			}
		}
		f := lw.bd.Func
		head := f.NewBlock()
		body := f.NewBlock()
		post := f.NewBlock()
		exit := f.NewBlock()
		lw.bd.Br(head)
		lw.bd.SetBlock(head)
		if st.Cond != nil {
			cond, cty, err := lw.expr(st.Cond)
			if err != nil {
				return err
			}
			if cty == TyFloat {
				return errf(st.Line, "for condition must be integer")
			}
			lw.bd.CondBr(cond, body, exit)
		} else {
			lw.bd.Br(body)
		}
		lw.bd.SetBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakTo: exit, continueTo: post})
		if err := lw.block(st.Body); err != nil {
			return err
		}
		lw.loops = lw.loops[:len(lw.loops)-1]
		if lw.bd.Cur.Terminator() == nil {
			lw.bd.Br(post)
		}
		lw.bd.SetBlock(post)
		if st.Post != nil {
			if err := lw.stmt(st.Post); err != nil {
				return err
			}
		}
		lw.bd.Br(head)
		lw.bd.SetBlock(exit)
		return nil

	case *BreakS:
		if len(lw.loops) == 0 {
			return errf(st.Line, "break outside loop")
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].breakTo)
		return nil

	case *ContinueS:
		if len(lw.loops) == 0 {
			return errf(st.Line, "continue outside loop")
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].continueTo)
		return nil
	}
	return errf(s.stmtLine(), "unhandled statement")
}

// coerce converts v from ty to want (int→float promotion only).
func (lw *lowerer) coerce(v *ir.Value, ty, want Ty, line int) (*ir.Value, error) {
	if ty == want {
		return v, nil
	}
	if ty == TyInt && want == TyFloat {
		return lw.bd.Un(ir.OpIToF, v), nil
	}
	if ty.IsPtr() && want == TyInt || ty == TyInt && want.IsPtr() {
		return v, nil // pointers are word addresses
	}
	if ty.IsPtr() && want.IsPtr() {
		return v, nil
	}
	return nil, errf(line, "cannot use %s as %s", ty, want)
}

// indexAddr computes the address and element type of base[idx].
func (lw *lowerer) indexAddr(ix *Index) (*ir.Value, Ty, error) {
	base, bty, err := lw.expr(ix.Base)
	if err != nil {
		return nil, TyVoid, err
	}
	if !bty.IsPtr() {
		return nil, TyVoid, errf(ix.Line, "indexing a non-pointer (%s)", bty)
	}
	idx, ity, err := lw.expr(ix.Idx)
	if err != nil {
		return nil, TyVoid, err
	}
	if ity != TyInt {
		return nil, TyVoid, errf(ix.Line, "array index must be int")
	}
	return lw.bd.Bin(ir.OpAdd, base, idx), bty.Elem(), nil
}

// expr lowers an expression, returning its value and static type.
func (lw *lowerer) expr(e Expr) (*ir.Value, Ty, error) {
	switch ex := e.(type) {
	case *IntLit:
		return lw.bd.ConstInt(ex.Val), TyInt, nil
	case *FloatLit:
		return lw.bd.ConstFloat(ex.Val), TyFloat, nil

	case *Ident:
		b := lw.lookup(ex.Name)
		if b == nil {
			return nil, TyVoid, errf(ex.Line, "undefined variable %q", ex.Name)
		}
		if b.global != nil {
			addr := lw.bd.Global(b.global.Name)
			if b.isArray {
				return addr, b.ty.Ptr(), nil
			}
			return lw.bd.Load(irType(b.ty), addr), b.ty, nil
		}
		if b.isArray {
			return b.val, b.ty, nil // already a pointer binding
		}
		return b.val, b.ty, nil

	case *Unary:
		x, ty, err := lw.expr(ex.X)
		if err != nil {
			return nil, TyVoid, err
		}
		switch ex.Op {
		case "-":
			if ty == TyFloat {
				return lw.bd.Un(ir.OpFNeg, x), TyFloat, nil
			}
			if ty != TyInt {
				return nil, TyVoid, errf(ex.Line, "cannot negate %s", ty)
			}
			return lw.bd.Un(ir.OpNeg, x), TyInt, nil
		case "!":
			if ty != TyInt {
				return nil, TyVoid, errf(ex.Line, "! requires int")
			}
			zero := lw.bd.ConstInt(0)
			return lw.bd.Bin(ir.OpEq, x, zero), TyInt, nil
		}
		return nil, TyVoid, errf(ex.Line, "unknown unary %q", ex.Op)

	case *Index:
		addr, elem, err := lw.indexAddr(ex)
		if err != nil {
			return nil, TyVoid, err
		}
		return lw.bd.Load(irType(elem), addr), elem, nil

	case *Cast:
		x, ty, err := lw.expr(ex.X)
		if err != nil {
			return nil, TyVoid, err
		}
		switch {
		case ty == ex.To:
			return x, ty, nil
		case ty == TyInt && ex.To == TyFloat:
			return lw.bd.Un(ir.OpIToF, x), TyFloat, nil
		case ty == TyFloat && ex.To == TyInt:
			return lw.bd.Un(ir.OpFToI, x), TyInt, nil
		case ty.IsPtr() && ex.To == TyInt:
			return x, TyInt, nil
		}
		return nil, TyVoid, errf(ex.Line, "cannot cast %s to %s", ty, ex.To)

	case *CallE:
		fd := lw.funcs[ex.Name]
		if fd == nil {
			return nil, TyVoid, errf(ex.Line, "undefined function %q", ex.Name)
		}
		if len(ex.Args) != len(fd.Params) {
			return nil, TyVoid, errf(ex.Line, "%q takes %d args, got %d", ex.Name, len(fd.Params), len(ex.Args))
		}
		args := make([]*ir.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, ty, err := lw.expr(a)
			if err != nil {
				return nil, TyVoid, err
			}
			v, err = lw.coerce(v, ty, fd.Params[i].Ty, ex.Line)
			if err != nil {
				return nil, TyVoid, err
			}
			args[i] = v
		}
		var rt ir.Type = ir.Void
		if fd.Ret != TyVoid {
			rt = irType(fd.Ret)
		}
		return lw.bd.Call(rt, ex.Name, args...), fd.Ret, nil

	case *Binary:
		return lw.binary(ex)
	}
	return nil, TyVoid, errf(e.exprLine(), "unhandled expression")
}

var intBinOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
	"==": ir.OpEq, "!=": ir.OpNe, "<": ir.OpLt, "<=": ir.OpLe, ">": ir.OpGt, ">=": ir.OpGe,
}

var floatBinOps = map[string]ir.Op{
	"+": ir.OpFAdd, "-": ir.OpFSub, "*": ir.OpFMul, "/": ir.OpFDiv,
	"==": ir.OpFEq, "!=": ir.OpFNe, "<": ir.OpFLt, "<=": ir.OpFLe, ">": ir.OpFGt, ">=": ir.OpFGe,
}

func isCmp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (lw *lowerer) binary(ex *Binary) (*ir.Value, Ty, error) {
	// Short-circuit logical operators lower to control flow writing a
	// temporary variable.
	if ex.Op == "&&" || ex.Op == "||" {
		x, xty, err := lw.expr(ex.X)
		if err != nil {
			return nil, TyVoid, err
		}
		if xty != TyInt {
			return nil, TyVoid, errf(ex.Line, "%s requires int operands", ex.Op)
		}
		tmp := lw.fresh("sc")
		f := lw.bd.Func
		evalY := f.NewBlock()
		done := f.NewBlock()
		zero := lw.bd.ConstInt(0)
		xb := lw.bd.Bin(ir.OpNe, x, zero)
		first := lw.bd.Assign(tmp, xb)
		if ex.Op == "&&" {
			lw.bd.CondBr(xb, evalY, done)
		} else {
			lw.bd.CondBr(xb, done, evalY)
		}
		lw.bd.SetBlock(evalY)
		y, yty, err := lw.expr(ex.Y)
		if err != nil {
			return nil, TyVoid, err
		}
		if yty != TyInt {
			return nil, TyVoid, errf(ex.Line, "%s requires int operands", ex.Op)
		}
		zy := lw.bd.ConstInt(0)
		yb := lw.bd.Bin(ir.OpNe, y, zy)
		lw.bd.Assign(tmp, yb)
		lw.bd.Br(done)
		lw.bd.SetBlock(done)
		// Reading the variable: any definition carries the name.
		return first, TyInt, nil
	}

	x, xty, err := lw.expr(ex.X)
	if err != nil {
		return nil, TyVoid, err
	}
	y, yty, err := lw.expr(ex.Y)
	if err != nil {
		return nil, TyVoid, err
	}

	// Pointer arithmetic: ptr ± int, and pointer comparisons.
	if xty.IsPtr() || yty.IsPtr() {
		switch {
		case ex.Op == "+" && xty.IsPtr() && yty == TyInt:
			return lw.bd.Bin(ir.OpAdd, x, y), xty, nil
		case ex.Op == "+" && yty.IsPtr() && xty == TyInt:
			return lw.bd.Bin(ir.OpAdd, x, y), yty, nil
		case ex.Op == "-" && xty.IsPtr() && yty == TyInt:
			return lw.bd.Bin(ir.OpSub, x, y), xty, nil
		case ex.Op == "-" && xty.IsPtr() && yty.IsPtr():
			return lw.bd.Bin(ir.OpSub, x, y), TyInt, nil
		case isCmp(ex.Op):
			return lw.bd.Bin(intBinOps[ex.Op], x, y), TyInt, nil
		}
		return nil, TyVoid, errf(ex.Line, "invalid pointer operation %q", ex.Op)
	}

	// Numeric promotion.
	if xty == TyFloat || yty == TyFloat {
		if xty == TyInt {
			x = lw.bd.Un(ir.OpIToF, x)
		}
		if yty == TyInt {
			y = lw.bd.Un(ir.OpIToF, y)
		}
		op, ok := floatBinOps[ex.Op]
		if !ok {
			return nil, TyVoid, errf(ex.Line, "operator %q not defined on float", ex.Op)
		}
		if isCmp(ex.Op) {
			return lw.bd.Bin(op, x, y), TyInt, nil
		}
		return lw.bd.Bin(op, x, y), TyFloat, nil
	}
	op, ok := intBinOps[ex.Op]
	if !ok {
		return nil, TyVoid, errf(ex.Line, "unknown operator %q", ex.Op)
	}
	return lw.bd.Bin(op, x, y), TyInt, nil
}
