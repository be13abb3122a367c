package core

import (
	"idemproc/internal/cfg"
	"idemproc/internal/ir"
)

// selfDepPhis returns the loop-header φs that are self-dependent: the
// value flowing in along a back edge depends (through pseudoregister
// dataflow inside the loop) on the φ itself. In SSA these are exactly the
// paper's "self-dependent pseudoregister antidependences" (§4.2.2) —
// assignments of the form tᵢ = f(tᵢ) across iterations.
func selfDepPhis(l *cfg.Loop) []*ir.Value {
	var out []*ir.Value
	inLoop := map[*ir.Block]bool{}
	for _, b := range l.Blocks {
		inLoop[b] = true
	}
	for _, phi := range l.Header.Phis() {
		dep := false
		for i, p := range l.Header.Preds {
			if !inLoop[p] {
				continue // entry edge
			}
			if dependsOn(phi.Args[i], phi, inLoop, map[*ir.Value]bool{}) {
				dep = true
				break
			}
		}
		if dep {
			out = append(out, phi)
		}
	}
	return out
}

// dependsOn reports whether v transitively uses target through values
// defined inside the loop.
func dependsOn(v, target *ir.Value, inLoop map[*ir.Block]bool, seen map[*ir.Value]bool) bool {
	if v == target {
		return true
	}
	if v == nil || seen[v] || !inLoop[v.Block] {
		return false
	}
	seen[v] = true
	for _, a := range v.Args {
		if dependsOn(a, target, inLoop, seen) {
			return true
		}
	}
	return false
}

// classifyLoop decides the §4.2.2 case for a loop given the current cuts:
//
//   - SelfDepNoCuts if the loop body contains no cut points — the φ's
//     storage can be defined outside the loop (Fig. 7b);
//   - SelfDepTwoCuts if every cycle through the body crosses at least two
//     cuts — the φ can be double-buffered across boundaries (Fig. 7c);
//   - SelfDepInsertedCuts otherwise (the caller must add cuts or unroll).
func classifyLoop(l *cfg.Loop, cuts map[*ir.Value]bool) SelfDepCase {
	weight := map[*ir.Block]int{}
	total := 0
	for _, b := range l.Blocks {
		w := 0
		for _, v := range b.Instrs {
			if cuts[v] {
				w++
			}
		}
		weight[b] = w
		total += w
	}
	if total == 0 {
		return SelfDepNoCuts
	}
	if minCutsPerCycle(l, weight) >= 2 {
		return SelfDepTwoCuts
	}
	return SelfDepInsertedCuts
}

// minCutsPerCycle computes the minimum number of cut points crossed by any
// cycle of the loop: a shortest path (block cut-counts as weights) from
// the header to each latch, staying inside the loop. A traversal of a
// block executes all of its instructions, so it crosses all of the
// block's cuts.
func minCutsPerCycle(l *cfg.Loop, weight map[*ir.Block]int) int {
	const inf = int(1) << 30
	inLoop := map[*ir.Block]bool{}
	for _, b := range l.Blocks {
		inLoop[b] = true
	}
	dist := map[*ir.Block]int{l.Header: weight[l.Header]}
	// Bellman–Ford style relaxation: weights are small non-negative ints
	// and loops are small.
	for i := 0; i < len(l.Blocks); i++ {
		changed := false
		for _, b := range l.Blocks {
			db, ok := dist[b]
			if !ok {
				continue
			}
			for _, s := range b.Succs {
				if !inLoop[s] || s == l.Header {
					continue
				}
				nd := db + weight[s]
				if cur, ok := dist[s]; !ok || nd < cur {
					dist[s] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	min := inf
	for _, latch := range l.Latches {
		if d, ok := dist[latch]; ok && d < min {
			min = d
		}
	}
	if min == inf {
		return 0
	}
	return min
}

// selfDepLoop is a loop whose header carries self-dependent φs.
type selfDepLoop struct {
	loop *cfg.Loop
	phis []*ir.Value
}

// selfDepLoops lists info's loops that carry self-dependent φs, in loop
// order.
func selfDepLoops(info *cfg.Info) []selfDepLoop {
	var out []selfDepLoop
	for _, l := range info.Loops {
		if phis := selfDepPhis(l); len(phis) > 0 {
			out = append(out, selfDepLoop{loop: l, phis: phis})
		}
	}
	return out
}

// classifySelfDeps produces the final report of self-dependent loops under
// the finished cut set.
func classifySelfDeps(loops []selfDepLoop, cuts map[*ir.Value]bool) []SelfDepInfo {
	var out []SelfDepInfo
	for _, sd := range loops {
		out = append(out, SelfDepInfo{
			Header: sd.loop.Header,
			Phis:   sd.phis,
			Case:   classifyLoop(sd.loop, cuts),
		})
	}
	return out
}
