// Package dataflow provides the data-dependence analyses behind the
// paper's region construction: instruction-level reachability and
// memory antidependence extraction (§2.1, §4.2.1).
//
// An antidependence is a write-after-read (WAR) pair. After the program
// transformations of §4.1 (SSA conversion + redundancy elimination), the
// surviving memory antidependences are exactly the potential clobber
// antidependences the region construction must cut.
package dataflow

import (
	"idemproc/internal/alias"
	"idemproc/internal/ir"
)

// Positions indexes every instruction's block-local position for
// intra-block ordering queries.
type Positions map[*ir.Value]int

// IndexPositions computes block-local instruction positions.
func IndexPositions(f *ir.Func) Positions {
	pos := Positions{}
	for _, b := range f.Blocks {
		for i, v := range b.Instrs {
			pos[v] = i
		}
	}
	return pos
}

// Reach answers instruction-level reachability queries: whether control
// can flow from one instruction to another along a path of at least one
// step.
type Reach struct {
	pos Positions
	// blockReach[i][j]: path of ≥1 edge from block i to block j.
	blockReach [][]bool
}

// ComputeReach builds the reachability index for f.
func ComputeReach(f *ir.Func) *Reach {
	f.Renumber()
	n := len(f.Blocks)
	r := &Reach{pos: IndexPositions(f), blockReach: make([][]bool, n)}
	for i := range r.blockReach {
		r.blockReach[i] = make([]bool, n)
	}
	// DFS from each block's successors.
	for _, b := range f.Blocks {
		var stack []*ir.Block
		for _, s := range b.Succs {
			if !r.blockReach[b.Index][s.Index] {
				r.blockReach[b.Index][s.Index] = true
				stack = append(stack, s)
			}
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range x.Succs {
				if !r.blockReach[b.Index][s.Index] {
					r.blockReach[b.Index][s.Index] = true
					stack = append(stack, s)
				}
			}
		}
	}
	return r
}

// Reaches reports whether control can flow from instruction a to
// instruction b taking at least one step.
func (r *Reach) Reaches(a, b *ir.Value) bool {
	if a.Block == b.Block && r.pos[a] < r.pos[b] {
		return true
	}
	return r.blockReach[a.Block.Index][b.Block.Index]
}

// Pos returns the block-local position of v.
func (r *Reach) Pos(v *ir.Value) int { return r.pos[v] }

// Antidep is a memory write-after-read dependence: Write may overwrite the
// location Read observed, and Write is reachable from Read.
type Antidep struct {
	Read  *ir.Value // an OpLoad
	Write *ir.Value // an OpStore
	// MustAliasPair records that the two addresses provably match (the
	// paper's running example distinguishes may- and must-alias clobbers).
	MustAliasPair bool
}

// MemoryAntideps extracts all memory antidependences in f. Calls are not
// paired here: the region construction places mandatory cuts around calls
// (intra-procedural analysis, as in the paper's implementation), which
// separates any WAR spanning a call.
func MemoryAntideps(f *ir.Func, ai *alias.Info, reach *Reach) []Antidep {
	var loads, stores []*ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			switch v.Op {
			case ir.OpLoad:
				loads = append(loads, v)
			case ir.OpStore:
				stores = append(stores, v)
			}
		}
	}
	var out []Antidep
	for _, r := range loads {
		for _, w := range stores {
			if !ai.MayAlias(r.Args[0], w.Args[0]) {
				continue
			}
			if !reach.Reaches(r, w) {
				continue
			}
			out = append(out, Antidep{
				Read:          r,
				Write:         w,
				MustAliasPair: ai.MustAlias(r.Args[0], w.Args[0]),
			})
		}
	}
	return out
}
