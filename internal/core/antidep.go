package core

import (
	"idemproc/internal/alias"
	"idemproc/internal/ir"
)

// Antidep is a memory write-after-read dependence (§2.1): Write may
// overwrite the location Read observed, and Write is reachable from Read.
// After the transformations of §4.1 (SSA conversion and redundancy
// elimination) the surviving memory antidependences are exactly the
// potential clobber antidependences the construction must cut (§4.2.1).
type Antidep struct {
	Read  *ir.Value // an OpLoad
	Write *ir.Value // an OpStore
	// MustAliasPair records that the two addresses provably match (the
	// paper's running example distinguishes may- and must-alias clobbers).
	MustAliasPair bool
}

// memoryAntideps extracts every memory antidependence of the graph's
// function: each load paired with each store whose address may alias the
// load's and which the load reaches in one or more steps. The pairs come
// in load order, then store order, both by position; loads and stores
// are real instructions, so position order is block order.
//
// A walk from a load over graph successors reaches the later
// instructions of its block, then every instruction of each block
// reachable by one or more edges, which includes the load's own block
// when the load sits in a loop. That is control-flow reachability of at
// least one step.
//
// Calls are not paired: the construction cuts around calls
// (intra-procedural analysis, as in the paper's implementation), which
// separates any antidependence that spans one.
func (g *InstrGraph) memoryAntideps(ai *alias.Info) []Antidep {
	var loads, stores []int
	for p, v := range g.Instrs {
		switch v.Op {
		case ir.OpLoad:
			loads = append(loads, p)
		case ir.OpStore:
			stores = append(stores, p)
		}
	}
	if len(stores) == 0 {
		return nil
	}
	var out []Antidep
	var stack []int
	for _, r := range loads {
		g.newWalk()
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.succs(p) {
				if g.reach(s) {
					stack = append(stack, s)
				}
			}
		}
		read := g.Instrs[r]
		for _, w := range stores {
			write := g.Instrs[w]
			if g.seen[w] != g.walk || !ai.MayAlias(read.Args[0], write.Args[0]) {
				continue
			}
			out = append(out, Antidep{
				Read:          read,
				Write:         write,
				MustAliasPair: ai.MustAlias(read.Args[0], write.Args[0]),
			})
		}
	}
	return out
}
