package core

import (
	"fmt"

	"idemproc/internal/alias"
	"idemproc/internal/cfg"
	"idemproc/internal/ir"
)

// Check independently verifies a construction result: it derives the
// instruction graph, memory antidependences and self-dependent loops of
// the (already transformed) function afresh and confirms the
// decomposition's correctness conditions:
//
//  1. Every memory antidependence (a, b) is separated: no execution path
//     from a to b avoids crossing a cut. Equivalently, b is unreachable
//     from a in the instruction graph with the entering edges of every cut
//     point removed. (This is the path-sensitive form of the paper's
//     "no antidependence edge contained in a region"; per footnote 4 an
//     edge whose endpoints lie in a region with no intra-region path is
//     safely contained.)
//  2. Every loop containing a self-dependent φ satisfies case 1 (no cuts
//     in the body) or case 2 (every cycle crosses ≥ 2 cuts), so register
//     allocation can always avoid re-introducing the clobber (§4.2.2).
//  3. Every instruction belongs to at least one region and region headers
//     are distinct (the decomposition conditions of §4.2.1).
//
// Construct tests the same conditions against the analyses of its last
// placement round, which it has no need to derive again.
func Check(res *Result) error {
	g, info, deps := analyze(res.F)
	return check(res, g, deps, selfDepLoops(g, info))
}

// analyze removes f's unreachable blocks and derives its instruction
// graph, control-flow analyses and memory antidependences: the analyses
// each placement round starts from.
func analyze(f *ir.Func) (*InstrGraph, *cfg.Info, []Antidep) {
	f.RemoveUnreachable()
	g := BuildInstrGraph(f)
	return g, cfg.Compute(f), g.memoryAntideps(alias.Compute(f))
}

// check is Check over the analyses of res.F: g is its instruction graph,
// deps its memory antidependences and selfDeps its loops with
// self-dependent φs.
func check(res *Result, g *InstrGraph, deps []Antidep, selfDeps []selfDepLoop) error {
	cut, err := g.cutFlags(res.Cuts)
	if err != nil {
		return err
	}

	// Condition 1: cut-free reachability must not connect read → write.
	for _, d := range deps {
		if pathAvoidingCuts(g, g.posOf(d.Read), g.posOf(d.Write), cut) {
			return fmt.Errorf("antidependence not separated: read %s → write %s",
				d.Read.LongString(), d.Write.LongString())
		}
	}

	// Condition 2: self-dependent loops are allocatable.
	for _, sd := range selfDeps {
		if c := classifyLoop(g, sd.loop, cut); c == SelfDepInsertedCuts {
			return fmt.Errorf("loop at %s has a self-dependent φ but neither zero nor ≥2 cuts per cycle", sd.loop.Header.Name)
		}
	}

	// Condition 3: coverage and distinct headers. A region may list only
	// real instructions of the function.
	covered := make([]bool, len(g.Instrs))
	seenHeader := make([]bool, len(g.Instrs))
	for _, r := range res.Regions {
		h := g.posOf(r.Header)
		if h < 0 {
			return fmt.Errorf("region %d has header %s, which is not a real instruction of the function", r.Index, r.Header.LongString())
		}
		if seenHeader[h] {
			return fmt.Errorf("duplicate region header %s", r.Header.LongString())
		}
		seenHeader[h] = true
		for _, v := range r.Instrs {
			p := g.posOf(v)
			if p < 0 {
				return fmt.Errorf("region %d lists %s, which is not a real instruction of the function", r.Index, v.LongString())
			}
			covered[p] = true
		}
	}
	for p, v := range g.Instrs {
		if !covered[p] {
			return fmt.Errorf("instruction not covered by any region: %s", v.LongString())
		}
	}
	return nil
}

// pathAvoidingCuts reports whether an execution path of ≥1 step exists
// from position a to position b that never *enters* a cut instruction.
// (Starting at a is free even if a is itself a cut; the path is separated
// only when some boundary is crossed after a and strictly before
// executing b.)
func pathAvoidingCuts(g *InstrGraph, a, b int, cut []bool) bool {
	g.newWalk()
	stack := []int{a}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs(v) {
			if cut[s] {
				continue
			}
			if s == b {
				return true
			}
			if g.reach(s) {
				stack = append(stack, s)
			}
		}
	}
	return false
}
