// Package cfg computes control-flow-graph analyses over ir.Func: reverse
// postorder, dominator trees (Cooper–Harvey–Kennedy iterative algorithm),
// dominance frontiers, and the natural-loop nesting forest.
//
// These are the inputs the paper's region construction needs: dominance for
// the Lemma-1 cut-candidate sets, and loop nesting depth for the §4.3
// dynamic-behaviour heuristic.
package cfg

import (
	"fmt"

	"idemproc/internal/ir"
)

// Info bundles the analyses for one function. Build it with Compute; it is
// invalidated by any CFG mutation.
type Info struct {
	F *ir.Func
	// RPO lists blocks in reverse postorder; RPONum[b.Index] is the
	// position of b in RPO.
	RPO    []*ir.Block
	RPONum []int
	// Idom[b.Index] is b's immediate dominator (nil for entry and
	// unreachable blocks).
	Idom []*ir.Block
	// DomChildren[b.Index] lists the blocks immediately dominated by b.
	DomChildren [][]*ir.Block
	// Frontier[b.Index] is b's dominance frontier.
	Frontier [][]*ir.Block
	// Loops is the loop nesting forest; LoopOf[b.Index] is the innermost
	// loop containing b (nil if none). Depth[b.Index] is the loop nesting
	// depth (0 outside all loops).
	Loops  []*Loop
	LoopOf []*Loop
	Depth  []int
	// domPre/domPost are dominator-tree DFS numbers for O(1) dominance
	// queries.
	domPre, domPost []int
}

// Loop is a natural loop discovered from back edges.
type Loop struct {
	// Header is the loop's entry block (target of its back edges).
	Header *ir.Block
	// Blocks are the loop body, header included.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are loops nested directly inside.
	Children []*Loop
	// Depth is 1 for an outermost loop, 2 for its children, etc.
	Depth int
	// Latches are the sources of back edges to Header.
	Latches []*ir.Block
}

// Contains reports whether b is in the loop body.
func (l *Loop) Contains(b *ir.Block) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// Compute runs all analyses on f. Unreachable blocks must be removed first
// (ir.Func.RemoveUnreachable); Compute panics otherwise so analyses never
// silently mis-handle them.
func Compute(f *ir.Func) *Info {
	f.Renumber()
	n := len(f.Blocks)
	info := &Info{F: f}

	// Postorder DFS from entry.
	seen := make([]bool, n)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for _, b := range f.Blocks {
		if !seen[b.Index] {
			panic(fmt.Sprintf("cfg: unreachable block %s in @%s; call RemoveUnreachable first", b.Name, f.Name))
		}
	}

	info.RPO = make([]*ir.Block, len(post))
	info.RPONum = make([]int, n)
	for i := range post {
		b := post[len(post)-1-i]
		info.RPO[i] = b
		info.RPONum[b.Index] = i
	}

	info.computeDominators()
	info.computeFrontiers()
	info.computeLoops()
	info.numberDomTree()
	return info
}

// computeDominators is the Cooper–Harvey–Kennedy iterative algorithm.
func (in *Info) computeDominators() {
	n := len(in.F.Blocks)
	idom := make([]*ir.Block, n)
	entry := in.F.Entry()
	idom[entry.Index] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for in.RPONum[a.Index] > in.RPONum[b.Index] {
				a = idom[a.Index]
			}
			for in.RPONum[b.Index] > in.RPONum[a.Index] {
				b = idom[b.Index]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range in.RPO[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	idom[entry.Index] = nil // by convention the entry has no idom
	in.Idom = idom
	in.DomChildren = make([][]*ir.Block, n)
	for _, b := range in.RPO {
		if d := idom[b.Index]; d != nil {
			in.DomChildren[d.Index] = append(in.DomChildren[d.Index], b)
		}
	}
}

func (in *Info) computeFrontiers() {
	n := len(in.F.Blocks)
	in.Frontier = make([][]*ir.Block, n)
	// seen[i] is the last join block appended to Frontier[i]. All of a
	// join block's predecessor walks run consecutively, so one stamp per
	// node replaces the linear duplicate scan the old appendUnique helper
	// performed on every step of every walk (quadratic in frontier size
	// for the diamond-heavy CFGs the region construction produces).
	// Membership never needs re-checking across join blocks because each
	// frontier list gains at most one copy of each b by construction.
	seen := make([]*ir.Block, n)
	for _, b := range in.RPO {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != in.Idom[b.Index] {
				if seen[runner.Index] != b {
					seen[runner.Index] = b
					in.Frontier[runner.Index] = append(in.Frontier[runner.Index], b)
				}
				runner = in.Idom[runner.Index]
			}
		}
	}
}

// numberDomTree assigns DFS pre/post numbers on the dominator tree.
func (in *Info) numberDomTree() {
	n := len(in.F.Blocks)
	in.domPre = make([]int, n)
	in.domPost = make([]int, n)
	t := 0
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		in.domPre[b.Index] = t
		t++
		for _, c := range in.DomChildren[b.Index] {
			walk(c)
		}
		in.domPost[b.Index] = t
		t++
	}
	walk(in.F.Entry())
}

// Dominates reports whether a dominates b (reflexively: a dominates a).
func (in *Info) Dominates(a, b *ir.Block) bool {
	return in.domPre[a.Index] <= in.domPre[b.Index] && in.domPost[b.Index] <= in.domPost[a.Index]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (in *Info) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && in.Dominates(a, b)
}

// computeLoops finds natural loops from back edges (t→h where h dominates
// t) and builds the nesting forest. Loops sharing a header are merged, as
// is conventional.
func (in *Info) computeLoops() {
	n := len(in.F.Blocks)
	in.numberDomTree() // Dominates needed below

	byHeader := make([]*Loop, n)
	for _, b := range in.RPO {
		for _, s := range b.Succs {
			if in.Dominates(s, b) { // back edge b→s
				l := byHeader[s.Index]
				if l == nil {
					l = &Loop{Header: s}
					byHeader[s.Index] = l
					in.Loops = append(in.Loops, l)
				}
				l.Latches = append(l.Latches, b)
			}
		}
	}

	// Loop bodies: reverse reachability from each latch to the header.
	// Loop i's body is inBody[i*n:(i+1)*n], by block index.
	inBody := make([]bool, len(in.Loops)*n)
	var stack []*ir.Block
	for i, l := range in.Loops {
		body := inBody[i*n : (i+1)*n]
		body[l.Header.Index] = true
		for _, t := range l.Latches {
			if !body[t.Index] {
				body[t.Index] = true
				stack = append(stack, t)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds {
				if !body[p.Index] {
					body[p.Index] = true
					stack = append(stack, p)
				}
			}
		}
		for _, b := range in.RPO { // deterministic order
			if body[b.Index] {
				l.Blocks = append(l.Blocks, b)
			}
		}
	}

	// Nesting: l1 is inside l2 if l2's body contains l1's header and they
	// differ. Parent = smallest containing loop.
	for _, l1 := range in.Loops {
		for i, l2 := range in.Loops {
			if l1 == l2 || !inBody[i*n+l1.Header.Index] {
				continue
			}
			if l1.Parent == nil || len(l2.Blocks) < len(l1.Parent.Blocks) {
				l1.Parent = l2
			}
		}
	}
	for _, l := range in.Loops {
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range in.Loops {
		if l.Parent == nil {
			setDepth(l, 1)
		}
	}

	// Innermost loop per block.
	in.LoopOf = make([]*Loop, n)
	in.Depth = make([]int, n)
	for _, l := range in.Loops {
		for _, b := range l.Blocks {
			if cur := in.LoopOf[b.Index]; cur == nil || l.Depth > cur.Depth {
				in.LoopOf[b.Index] = l
			}
		}
	}
	for i, l := range in.LoopOf {
		if l != nil {
			in.Depth[i] = l.Depth
		}
	}
}
