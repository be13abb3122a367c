// Package ssa converts ir functions into and out of static single
// assignment form.
//
// The paper's region construction requires SSA (§4.1): "the conversion of
// all pseudoregister assignments to SSA form ... effectively eliminates all
// artificial clobber antidependences" except the self-dependent ones that
// manifest as φ-nodes at loop headers. Frontends emit non-SSA code in which
// a pseudoregister name may be assigned repeatedly; Build renames those
// apart, inserting φ-nodes at iterated dominance frontiers (Cytron et al.).
// Destruct lowers φ-nodes back to copies ahead of code generation.
package ssa

import (
	"fmt"
	"sort"

	"idemproc/internal/cfg"
	"idemproc/internal/ir"
)

// Build converts f to SSA form in place. Names assigned more than once are
// treated as variables: φ-nodes are placed at the iterated dominance
// frontier of their definition blocks and every definition gets a fresh
// name. Uses reachable by no definition read an implicit zero constant
// (the frontend guarantees this never happens on meaningful paths).
func Build(f *ir.Func) {
	f.RemoveUnreachable()
	info := cfg.Compute(f)

	// Count definitions by name; only multiply-defined names, the
	// variables, need the treatment. nameOf[id] is the index in names of
	// the name value id defined before renaming (-1 if none), so that uses
	// processed later in the dominator walk still identify their variable
	// after its definitions have been renamed.
	n0 := f.NumValues()
	ninstrs := 0
	for _, b := range f.Blocks {
		ninstrs += len(b.Instrs)
	}
	type name struct {
		name string
		defs int32
		typ  ir.Type // the first definition's
	}
	index := make(map[string]int32, ninstrs)
	var names []name
	nameOf := make([]int32, n0)
	for i := range nameOf {
		nameOf[i] = -1
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if !v.Defines() {
				continue
			}
			k, ok := index[v.Name]
			if !ok {
				k = int32(len(names))
				index[v.Name] = k
				names = append(names, name{name: v.Name, typ: v.Type})
			}
			names[k].defs++
			nameOf[v.ID] = k
		}
	}

	// Number the variables in sorted name order. The order fixes the φ
	// order within a block, and with it value numbering, register
	// assignment and the final instruction stream, which anything keyed on
	// dynamic instruction positions (fault-injection campaigns in
	// particular) needs reproducible.
	var vars []int32 // variable j is names[vars[j]]
	for k, nm := range names {
		if nm.defs > 1 {
			vars = append(vars, int32(k))
		}
	}
	if len(vars) == 0 {
		return
	}
	sort.Slice(vars, func(i, j int) bool { return names[vars[i]].name < names[vars[j]].name })
	varOfName := make([]int32, len(names))
	for k := range varOfName {
		varOfName[k] = -1
	}
	for j, k := range vars {
		varOfName[k] = int32(j)
	}
	// varOf returns the variable v defined before renaming, or -1.
	varOf := func(v *ir.Value) int32 {
		if v.ID >= n0 || nameOf[v.ID] < 0 {
			return -1 // made by Build, or defines nothing
		}
		return varOfName[nameOf[v.ID]]
	}

	// defBlocks[j] lists the blocks defining variable j, in block order.
	defBlocks := make([][]*ir.Block, len(vars))
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if j := varOf(v); j >= 0 {
				if d := defBlocks[j]; len(d) == 0 || d[len(d)-1] != b {
					defBlocks[j] = append(d, b)
				}
			}
		}
	}

	// Insert φ-nodes at the iterated dominance frontier of each variable's
	// definition blocks, variable by variable. A block holds variable j's
	// definition (or φ) when defStamp[b.Index] == j+1, and its φ when
	// phiStamp[b.Index] == j+1. The φs are the only values made here, so
	// φ i has ID n0+i and phiVar[i] is its variable.
	defStamp := make([]int32, len(f.Blocks))
	phiStamp := make([]int32, len(f.Blocks))
	var phiVar []int32
	var work []*ir.Block
	for j, k := range vars {
		stamp := int32(j + 1)
		work = append(work[:0], defBlocks[j]...)
		for _, b := range work {
			defStamp[b.Index] = stamp
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range info.Frontier[b.Index] {
				if phiStamp[d.Index] == stamp {
					continue
				}
				phiStamp[d.Index] = stamp
				phi := f.NewValue(ir.OpPhi, names[k].typ, make([]*ir.Value, len(d.Preds))...)
				phi.Block = d
				// φs go at the head, after any params.
				at := 0
				for at < len(d.Instrs) && (d.Instrs[at].Op == ir.OpParam || d.Instrs[at].Op == ir.OpPhi) {
					at++
				}
				d.Instrs = append(d.Instrs, nil)
				copy(d.Instrs[at+1:], d.Instrs[at:])
				d.Instrs[at] = phi
				phiVar = append(phiVar, int32(j))
				if defStamp[d.Index] != stamp {
					defStamp[d.Index] = stamp
					work = append(work, d)
				}
			}
		}
	}
	phiOf := func(v *ir.Value) int32 {
		if i := v.ID - n0; i >= 0 && i < len(phiVar) {
			return phiVar[i]
		}
		return -1 // not a φ Build inserted
	}

	// Rename via dominator-tree walk with per-variable stacks.
	stacks := make([][]*ir.Value, len(vars))
	// zeroFor lazily materializes an entry-block zero for paths where a
	// variable is read before any definition.
	var zeros [ir.F64 + 1]*ir.Value
	zeroFor := func(t ir.Type) *ir.Value {
		if z := zeros[t]; z != nil {
			return z
		}
		z := f.NewValue(ir.OpConst, t)
		entry := f.Entry()
		at := 0
		for at < len(entry.Instrs) && entry.Instrs[at].Op == ir.OpParam {
			at++
		}
		entry.Instrs = append(entry.Instrs, nil)
		copy(entry.Instrs[at+1:], entry.Instrs[at:])
		entry.Instrs[at] = z
		z.Block = entry
		zeros[t] = z
		return z
	}
	top := func(j int32, t ir.Type) *ir.Value {
		s := stacks[j]
		if len(s) == 0 {
			return zeroFor(t)
		}
		return s[len(s)-1]
	}

	// pushed logs the variables pushed by the blocks on the walk's path;
	// each block pops its own entries on the way out.
	var pushed []int32
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		mark := len(pushed)
		for _, v := range b.Instrs {
			if g := phiOf(v); g >= 0 {
				v.Name = f.FreshName()
				stacks[g] = append(stacks[g], v)
				pushed = append(pushed, g)
				continue
			}
			if v.Op != ir.OpPhi { // pre-existing φs keep their args
				for i, a := range v.Args {
					if a == nil {
						continue
					}
					if g := varOf(a); g >= 0 {
						v.Args[i] = top(g, a.Type)
					}
				}
			}
			if !v.Defines() {
				continue
			}
			if g := varOf(v); g >= 0 {
				v.Name = f.FreshName()
				stacks[g] = append(stacks[g], v)
				pushed = append(pushed, g)
			}
		}
		for _, s := range b.Succs {
			for pi, p := range s.Preds {
				if p != b {
					continue // a block may be a duplicate predecessor
				}
				for _, phi := range s.Phis() {
					if g := phiOf(phi); g >= 0 {
						phi.Args[pi] = top(g, phi.Type)
					}
				}
			}
		}
		for _, c := range info.DomChildren[b.Index] {
			rename(c)
		}
		for _, g := range pushed[mark:] {
			stacks[g] = stacks[g][:len(stacks[g])-1]
		}
		pushed = pushed[:mark]
	}
	rename(f.Entry())

	if err := ir.Verify(f); err != nil {
		panic(fmt.Sprintf("ssa.Build produced invalid IR: %v", err))
	}
	if err := VerifySSA(f); err != nil {
		panic(fmt.Sprintf("ssa.Build produced invalid SSA: %v", err))
	}
}

// VerifySSA checks SSA invariants: unique names, definitions dominate
// uses, and φ arguments' definitions dominate the corresponding
// predecessor's exit.
func VerifySSA(f *ir.Func) error {
	info := cfg.Compute(f)
	defs := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Defines() {
				defs++
			}
		}
	}
	seen := make(map[string]*ir.Value, defs)
	// order[id] is the value's index in its block.
	order := make([]int32, f.NumValues())
	for _, b := range f.Blocks {
		for i, v := range b.Instrs {
			order[v.ID] = int32(i)
			if !v.Defines() {
				continue
			}
			if prev, dup := seen[v.Name]; dup {
				return fmt.Errorf("ssa: name %%%s defined by both %s and %s", v.Name, prev.LongString(), v.LongString())
			}
			seen[v.Name] = v
		}
	}
	domValue := func(def, use *ir.Value) bool {
		if def.Block == use.Block {
			return order[def.ID] < order[use.ID]
		}
		return info.StrictlyDominates(def.Block, use.Block)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpPhi {
				for i, a := range v.Args {
					pred := b.Preds[i]
					if a.Block != pred && !info.Dominates(a.Block, pred) {
						return fmt.Errorf("ssa: φ %s arg %s does not dominate pred %s", v.LongString(), a, pred.Name)
					}
				}
				continue
			}
			for _, a := range v.Args {
				if !domValue(a, v) {
					return fmt.Errorf("ssa: use of %s in %s not dominated by its definition", a, v.LongString())
				}
			}
		}
	}
	return nil
}

// PropagateCopies replaces every use of "v = copy x" with x and removes v.
// Valid only in SSA form.
func PropagateCopies(f *ir.Func) {
	// Resolve chains first.
	resolve := make([]*ir.Value, f.NumValues())
	var root func(v *ir.Value) *ir.Value
	root = func(v *ir.Value) *ir.Value {
		if v.Op != ir.OpCopy {
			return v
		}
		if r := resolve[v.ID]; r != nil {
			return r
		}
		r := root(v.Args[0])
		resolve[v.ID] = r
		return r
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			for i, a := range v.Args {
				v.Args[i] = root(a)
			}
		}
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if v.Op == ir.OpCopy {
				continue
			}
			kept = append(kept, v)
		}
		b.Instrs = kept
	}
}

// EliminateDeadValues removes instructions whose results are unused and
// that have no side effects, iterating to a fixed point. Valid in SSA.
func EliminateDeadValues(f *ir.Func) {
	used := make([]bool, f.NumValues())
	for {
		clear(used)
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				for _, a := range v.Args {
					used[a.ID] = true
				}
			}
		}
		removed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, v := range b.Instrs {
				if v.Defines() && !used[v.ID] && !v.Op.HasSideEffects() && v.Op != ir.OpParam && v.Op != ir.OpAlloca {
					removed = true
					continue
				}
				kept = append(kept, v)
			}
			b.Instrs = kept
		}
		if !removed {
			return
		}
	}
}

// Destruct converts f out of SSA form: critical edges are split and each
// φ-node is replaced by copies — "tmp = arg" at the end of each
// predecessor and "phi = tmp" at the φ's position. The two-stage copy via
// a single shared temporary is immune to the lost-copy and swap problems.
// The result is non-SSA (tmp has multiple definitions sharing one name),
// which code generation accepts (it allocates storage per name).
func Destruct(f *ir.Func) {
	SplitCriticalEdges(f)
	for _, b := range f.Blocks {
		phis := b.Phis()
		if len(phis) == 0 {
			continue
		}
		for _, phi := range phis {
			tmpName := f.FreshName()
			for i, a := range phi.Args {
				pred := b.Preds[i]
				cp := f.NewValue(ir.OpCopy, phi.Type, a)
				cp.Name = tmpName
				pred.InsertBefore(cp, pred.Terminator())
			}
			// Rewrite the φ itself into "phi = copy tmp". Any definition
			// of tmp reaching b has the right value; codegen allocates
			// storage per name, so the arg pointer only needs to carry
			// the name and type — point it at the first copy.
			phi.Op = ir.OpCopy
			phi.Args = []*ir.Value{firstDefOf(f, tmpName)}
		}
	}
	if err := ir.Verify(f); err != nil {
		panic(fmt.Sprintf("ssa.Destruct produced invalid IR: %v", err))
	}
}

func firstDefOf(f *ir.Func, name string) *ir.Value {
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Name == name {
				return v
			}
		}
	}
	panic("ssa: no definition of " + name)
}

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose destination has multiple predecessors.
func SplitCriticalEdges(f *ir.Func) {
	// Collect first: we mutate the block list.
	type edge struct{ from, to *ir.Block }
	var critical []edge
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(s.Preds) >= 2 {
				critical = append(critical, edge{b, s})
			}
		}
	}
	for _, e := range critical {
		mid := f.NewBlock()
		br := f.NewValue(ir.OpBr, ir.Void)
		br.Block = mid
		mid.Instrs = []*ir.Value{br}
		e.from.ReplaceSucc(e.to, mid)
		mid.Preds = []*ir.Block{e.from}
		mid.Succs = []*ir.Block{e.to}
		e.to.ReplacePred(e.from, mid)
	}
	f.Renumber()
}
