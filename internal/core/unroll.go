package core

import (
	"fmt"

	"idemproc/internal/cfg"
	"idemproc/internal/ir"
	"idemproc/internal/ssa"
)

// UnrollOnce duplicates the body of the natural loop headed at header so
// that one trip around the original cycle executes two logical iterations
// (the §5 enhancement: "before inserting cuts, we attempt to unroll the
// containing loop once if possible", which lets the second required cut
// land in the unrolled iteration and enables double buffering of
// self-dependent φs).
//
// The transformation is conservative: it requires a single latch and a
// single exit block whose predecessors all lie in the loop, and every
// loop-defined value used outside the loop must come from a block
// dominating the exit. It returns false (leaving f untouched) when the
// shape does not fit; the caller then falls back to inserting cuts.
func UnrollOnce(f *ir.Func, header *ir.Block) bool {
	f.RemoveUnreachable()
	info := cfg.Compute(f)
	var loop *cfg.Loop
	for _, l := range info.Loops {
		if l.Header == header {
			loop = l
		}
	}
	if loop == nil || len(loop.Latches) != 1 {
		return false
	}
	latch := loop.Latches[0]
	// Blocks and values made from here on are the clone's: block i of f is
	// original when i < nb0, and value id when id < n0.
	nb0, n0 := len(f.Blocks), f.NumValues()
	inLoopIdx := make([]bool, nb0)
	for _, b := range loop.Blocks {
		inLoopIdx[b.Index] = true
	}
	inLoop := func(b *ir.Block) bool { return b.Index < nb0 && inLoopIdx[b.Index] }

	// Find the unique exit block.
	var exit *ir.Block
	for _, b := range loop.Blocks {
		for _, s := range b.Succs {
			if inLoop(s) {
				continue
			}
			if exit == nil {
				exit = s
			} else if exit != s {
				return false // multiple exit blocks
			}
		}
	}
	if exit == nil {
		return false // infinite loop
	}
	for _, p := range exit.Preds {
		if !inLoop(p) {
			return false // exit reachable from outside the loop
		}
	}

	// Values defined in the loop and used outside must dominate the exit
	// so a merge φ in the exit block is well-formed.
	usedOutside := outsideUses(f, inLoop)
	for _, v := range usedOutside {
		if !info.Dominates(v.Block, exit) {
			return false
		}
	}

	// ---- Clone the body. ----
	// vmap[id] is the clone of original value id and bmap[i] of original
	// block i; orig[id-n0] is the original of clone id.
	vmap := make([]*ir.Value, n0)
	bmap := make([]*ir.Block, nb0)
	var orig []*ir.Value
	for _, b := range loop.Blocks {
		nb := f.NewBlock()
		nb.Name = b.Name + ".u"
		bmap[b.Index] = nb
		for _, v := range b.Instrs {
			nv := f.NewValue(v.Op, v.Type, make([]*ir.Value, len(v.Args))...)
			nv.ConstInt, nv.ConstFloat, nv.Aux = v.ConstInt, v.ConstFloat, v.Aux
			nv.Block = nb
			nb.Instrs = append(nb.Instrs, nv)
			vmap[v.ID] = nv
			orig = append(orig, v)
		}
	}
	mapped := func(v *ir.Value) *ir.Value {
		if v.ID < n0 && vmap[v.ID] != nil {
			return vmap[v.ID]
		}
		return v
	}

	// Clone argument lists (header φs fixed up separately below).
	for _, b := range loop.Blocks {
		for _, v := range b.Instrs {
			nv := vmap[v.ID]
			for i, a := range v.Args {
				if a != nil {
					nv.Args[i] = mapped(a)
				}
			}
		}
	}

	// Clone CFG edges. In-loop successors go to the clone, exit edges go
	// to the shared exit block, and the clone latch's back edge returns
	// to the ORIGINAL header. Predecessor lists of cloned blocks mirror
	// the originals position-for-position so φ arguments stay aligned.
	hClone := bmap[header.Index]
	for _, b := range loop.Blocks {
		nb := bmap[b.Index]
		for _, s := range b.Succs {
			switch {
			case s == header: // back edge: clone latch → original header
				nb.Succs = append(nb.Succs, header)
			case inLoop(s):
				nb.Succs = append(nb.Succs, bmap[s.Index])
			default: // exit edge
				nb.Succs = append(nb.Succs, exit)
			}
		}
		if b != header {
			for _, p := range b.Preds {
				nb.Preds = append(nb.Preds, bmap[p.Index])
			}
		}
	}

	// Original header φs: the back edge now arrives from the clone latch
	// carrying the clone's values.
	li := header.PredIndex(latch)
	header.Preds[li] = bmap[latch.Index]
	for _, phi := range header.Phis() {
		phi.Args[li] = mapped(phi.Args[li])
	}

	// Clone header φs: the clone header's only predecessor is the
	// original latch, and the incoming value is the ORIGINAL back-edge
	// argument (iteration i's value, not the clone's): invert the mapping.
	latch.ReplaceSucc(header, hClone)
	hClone.Preds = []*ir.Block{latch}
	for _, phi := range header.Phis() {
		back := phi.Args[li]
		if i := back.ID - n0; i >= 0 && i < len(orig) {
			back = orig[i]
		}
		cphi := vmap[phi.ID]
		cphi.Op = ir.OpCopy
		cphi.Args = []*ir.Value{back}
	}

	// Exit block: add clone predecessors and extend φs, pairing each new
	// pred with the clone of the corresponding original edge (handles
	// duplicate predecessors positionally).
	origPreds := append([]*ir.Block{}, exit.Preds...)
	for pi, p := range origPreds {
		exit.Preds = append(exit.Preds, bmap[p.Index])
		for _, phi := range exit.Phis() {
			phi.Args = append(phi.Args, mapped(phi.Args[pi]))
		}
	}

	// Merge φs for loop-defined values used beyond the exit block's φs.
	for _, v := range usedOutside {
		phi := f.NewValue(ir.OpPhi, v.Type, make([]*ir.Value, len(exit.Preds))...)
		for i, p := range exit.Preds {
			if inLoop(p) {
				phi.Args[i] = v
			} else {
				phi.Args[i] = mapped(v)
			}
		}
		phi.Block = exit
		at := 0
		for at < len(exit.Instrs) && exit.Instrs[at].Op == ir.OpPhi {
			at++
		}
		exit.Instrs = append(exit.Instrs, nil)
		copy(exit.Instrs[at+1:], exit.Instrs[at:])
		exit.Instrs[at] = phi

		// Rewrite uses outside the loop and its clone (and outside the
		// merge φs just created).
		for _, b := range f.Blocks {
			if inLoop(b) || b.Index >= nb0 {
				continue
			}
			for _, u := range b.Instrs {
				if u == phi {
					continue
				}
				if b == exit && u.Op == ir.OpPhi {
					continue // per-edge φ args already correct
				}
				for i, a := range u.Args {
					if a == v {
						u.Args[i] = phi
					}
				}
			}
		}
	}

	f.Renumber()
	if err := ir.Verify(f); err != nil {
		panic(fmt.Sprintf("core: UnrollOnce produced invalid IR: %v", err))
	}
	if err := ssa.VerifySSA(f); err != nil {
		panic(fmt.Sprintf("core: UnrollOnce broke SSA: %v", err))
	}
	return true
}

// outsideUses returns the loop-defined values with at least one use
// outside the loop, in program order.
func outsideUses(f *ir.Func, inLoop func(*ir.Block) bool) []*ir.Value {
	used := make([]bool, f.NumValues())
	for _, b := range f.Blocks {
		if inLoop(b) {
			continue
		}
		for _, v := range b.Instrs {
			if v.Op == ir.OpPhi {
				// A φ use counts as a use at the predecessor's exit.
				for i, a := range v.Args {
					if a != nil && a.Block != nil && inLoop(a.Block) && !inLoop(b.Preds[i]) {
						used[a.ID] = true
					}
				}
				continue
			}
			for _, a := range v.Args {
				if a.Block != nil && inLoop(a.Block) {
					used[a.ID] = true
				}
			}
		}
	}
	var out []*ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if used[v.ID] {
				out = append(out, v)
			}
		}
	}
	return out
}
