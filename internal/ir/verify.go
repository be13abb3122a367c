package ir

import "fmt"

// Verify checks structural well-formedness of f and returns the first
// problem found, or nil. It is used liberally in tests and after every
// transformation pass.
//
// Checks: every block ends in exactly one terminator; Succs/Preds are
// mutually consistent; terminator kind matches successor count; φ-nodes
// lead their block and have one argument per predecessor; every argument
// is an instruction of the same function; allocas and params live in the
// entry block; operand types match the operation.
func Verify(f *Func) error {
	f.Renumber()
	// inFunc[id] is the instruction of f with that ID. A use tests the
	// pointer, not the ID alone, so a value of another function is
	// rejected even when its ID is one of f's.
	inFunc := make([]*Value, f.NumValues())
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Block != b {
				return fmt.Errorf("%s: %s has Block=%v, expected %s", f.Name, v.LongString(), blockName(v.Block), b.Name)
			}
			if v.ID < 0 || v.ID >= len(inFunc) {
				return fmt.Errorf("%s: %s has ID %d, not one %s numbered", f.Name, v.LongString(), v.ID, f.Name)
			}
			if w := inFunc[v.ID]; w != nil && w != v {
				return fmt.Errorf("%s: %s and %s share ID %d", f.Name, w.LongString(), v.LongString(), v.ID)
			}
			inFunc[v.ID] = v
		}
	}
	for _, b := range f.Blocks {
		term := b.Terminator()
		if term == nil {
			return fmt.Errorf("%s: block %s lacks a terminator", f.Name, b.Name)
		}
		for i, v := range b.Instrs {
			if v.Op.IsTerminator() && v != term {
				return fmt.Errorf("%s: block %s has terminator %s before the end", f.Name, b.Name, v.Op)
			}
			if v.Op == OpPhi {
				if i > 0 && b.Instrs[i-1].Op != OpPhi && b.Instrs[i-1].Op != OpParam {
					return fmt.Errorf("%s: φ %s not at head of block %s", f.Name, v.LongString(), b.Name)
				}
				if len(v.Args) != len(b.Preds) {
					return fmt.Errorf("%s: φ %s in %s has %d args for %d preds", f.Name, v.LongString(), b.Name, len(v.Args), len(b.Preds))
				}
			}
			if v.Op == OpAlloca && b != f.Entry() {
				return fmt.Errorf("%s: alloca %s outside entry block", f.Name, v)
			}
			if v.Op == OpParam && b != f.Entry() {
				return fmt.Errorf("%s: param %s outside entry block", f.Name, v)
			}
			for _, a := range v.Args {
				if a == nil {
					return fmt.Errorf("%s: %s has nil argument", f.Name, v.LongString())
				}
				if a.ID < 0 || a.ID >= len(inFunc) || inFunc[a.ID] != a {
					return fmt.Errorf("%s: %s uses %s which is not in the function", f.Name, v.LongString(), a)
				}
				if !a.Defines() {
					return fmt.Errorf("%s: %s uses void value %s", f.Name, v.LongString(), a)
				}
			}
			if err := checkTypes(f, v); err != nil {
				return err
			}
		}
		switch term.Op {
		case OpBr:
			if len(b.Succs) != 1 {
				return fmt.Errorf("%s: br block %s has %d successors", f.Name, b.Name, len(b.Succs))
			}
		case OpCondBr:
			if len(b.Succs) != 2 {
				return fmt.Errorf("%s: condbr block %s has %d successors", f.Name, b.Name, len(b.Succs))
			}
		case OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("%s: ret block %s has successors", f.Name, b.Name)
			}
			if f.ResultType == Void && len(term.Args) != 0 {
				return fmt.Errorf("%s: ret with value in void function", f.Name)
			}
			if f.ResultType != Void && len(term.Args) != 1 {
				return fmt.Errorf("%s: ret without value in non-void function", f.Name)
			}
		}
		for _, s := range b.Succs {
			if s.PredIndex(b) < 0 {
				return fmt.Errorf("%s: edge %s->%s missing from %s.Preds", f.Name, b.Name, s.Name, s.Name)
			}
		}
		for _, p := range b.Preds {
			found := false
			for _, s := range p.Succs {
				if s == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: edge %s->%s missing from %s.Succs", f.Name, p.Name, b.Name, p.Name)
			}
		}
	}
	return nil
}

func blockName(b *Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

func checkTypes(f *Func, v *Value) error {
	want := func(a *Value, t Type) error {
		if a.Type != t {
			return fmt.Errorf("%s: %s: operand %s has type %s, want %s", f.Name, v.LongString(), a, a.Type, t)
		}
		return nil
	}
	switch v.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		for _, a := range v.Args {
			if err := want(a, I64); err != nil {
				return err
			}
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFNe, OpFLt, OpFLe, OpFGt, OpFGe:
		for _, a := range v.Args {
			if err := want(a, F64); err != nil {
				return err
			}
		}
	case OpNeg, OpNot:
		return want(v.Args[0], I64)
	case OpFNeg, OpFToI:
		return want(v.Args[0], F64)
	case OpIToF:
		return want(v.Args[0], I64)
	case OpLoad, OpCondBr:
		return want(v.Args[0], I64)
	case OpStore:
		return want(v.Args[0], I64)
	case OpPhi, OpCopy:
		for _, a := range v.Args {
			if err := want(a, v.Type); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyModule verifies every function in m, plus the inter-procedural
// facts Verify cannot see: every call names a defined function with
// matching arity, argument types and result type, and every OpGlobal
// names a declared global.
func VerifyModule(m *Module) error {
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			return err
		}
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				switch v.Op {
				case OpCall:
					callee := m.Func(v.Aux)
					if callee == nil {
						return fmt.Errorf("%s: call to undefined @%s", f.Name, v.Aux)
					}
					if len(v.Args) != len(callee.Params) {
						return fmt.Errorf("%s: call @%s with %d args, want %d", f.Name, v.Aux, len(v.Args), len(callee.Params))
					}
					for i, a := range v.Args {
						if a.Type != callee.Params[i].Type {
							return fmt.Errorf("%s: call @%s arg %d has type %s, want %s",
								f.Name, v.Aux, i, a.Type, callee.Params[i].Type)
						}
					}
					if v.Type != callee.ResultType {
						return fmt.Errorf("%s: call @%s used as %s, returns %s", f.Name, v.Aux, v.Type, callee.ResultType)
					}
				case OpGlobal:
					if m.Global(v.Aux) == nil {
						return fmt.Errorf("%s: reference to undeclared global @%s", f.Name, v.Aux)
					}
				}
			}
		}
	}
	return nil
}
