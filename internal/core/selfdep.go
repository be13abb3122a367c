package core

import (
	"idemproc/internal/cfg"
	"idemproc/internal/ir"
)

// loopScratch is the stamped scratch of the loop analyses over a graph's
// function: block b is in the loop being examined when inLoop[b.Index] ==
// loop, and value v has been met by the current dependence walk when
// met[v.ID] == walk. weight and dist are by block index and hold values
// for the examined loop's blocks.
type loopScratch struct {
	inLoop       []int32
	loop         int32
	met          []int32
	walk         int32
	weight, dist []int
}

// enterLoop returns the graph's loop scratch, set to examine l.
func (g *InstrGraph) enterLoop(l *cfg.Loop) *loopScratch {
	s := g.loops
	if s == nil {
		n := len(g.blockStart) - 1
		s = &loopScratch{
			inLoop: make([]int32, n),
			met:    make([]int32, len(g.pos)),
			weight: make([]int, n),
			dist:   make([]int, n),
		}
		g.loops = s
	}
	s.loop++
	for _, b := range l.Blocks {
		s.inLoop[b.Index] = s.loop
	}
	return s
}

// contains reports whether b is in the examined loop.
func (s *loopScratch) contains(b *ir.Block) bool { return s.inLoop[b.Index] == s.loop }

// selfDepPhis returns the loop-header φs that are self-dependent: the
// value flowing in along a back edge depends (through pseudoregister
// dataflow inside the loop) on the φ itself. In SSA these are exactly the
// paper's "self-dependent pseudoregister antidependences" (§4.2.2) —
// assignments of the form tᵢ = f(tᵢ) across iterations.
func selfDepPhis(g *InstrGraph, l *cfg.Loop) []*ir.Value {
	s := g.enterLoop(l)
	var out []*ir.Value
	for _, phi := range l.Header.Phis() {
		for i, p := range l.Header.Preds {
			if !s.contains(p) {
				continue // entry edge
			}
			s.walk++
			if s.dependsOn(phi.Args[i], phi) {
				out = append(out, phi)
				break
			}
		}
	}
	return out
}

// dependsOn reports whether v transitively uses target through values
// defined inside the examined loop, skipping values the walk has met.
func (s *loopScratch) dependsOn(v, target *ir.Value) bool {
	if v == target {
		return true
	}
	if v == nil || s.met[v.ID] == s.walk || !s.contains(v.Block) {
		return false
	}
	s.met[v.ID] = s.walk
	for _, a := range v.Args {
		if s.dependsOn(a, target) {
			return true
		}
	}
	return false
}

// classifyLoop decides the §4.2.2 case for a loop of the graph's function
// given the current cuts, as per-position flags:
//
//   - SelfDepNoCuts if the loop body contains no cut points — the φ's
//     storage can be defined outside the loop (Fig. 7b);
//   - SelfDepTwoCuts if every cycle through the body crosses at least two
//     cuts — the φ can be double-buffered across boundaries (Fig. 7c);
//   - SelfDepInsertedCuts otherwise (the caller must add cuts or unroll).
func classifyLoop(g *InstrGraph, l *cfg.Loop, cut []bool) SelfDepCase {
	s := g.enterLoop(l)
	total := 0
	for _, b := range l.Blocks {
		w := 0
		for p := g.blockStart[b.Index]; p < g.blockStart[b.Index+1]; p++ {
			if cut[p] {
				w++
			}
		}
		s.weight[b.Index] = w
		total += w
	}
	if total == 0 {
		return SelfDepNoCuts
	}
	if s.minCutsPerCycle(l) >= 2 {
		return SelfDepTwoCuts
	}
	return SelfDepInsertedCuts
}

// minCutsPerCycle computes the minimum number of cut points crossed by any
// cycle of the examined loop l: a shortest path (block cut-counts as
// weights) from the header to each latch, staying inside the loop. A
// traversal of a block executes all of its instructions, so it crosses
// all of the block's cuts.
func (s *loopScratch) minCutsPerCycle(l *cfg.Loop) int {
	const inf = int(1) << 30
	for _, b := range l.Blocks {
		s.dist[b.Index] = -1 // not reached yet
	}
	s.dist[l.Header.Index] = s.weight[l.Header.Index]
	// Bellman–Ford style relaxation: weights are small non-negative ints
	// and loops are small.
	for i := 0; i < len(l.Blocks); i++ {
		changed := false
		for _, b := range l.Blocks {
			db := s.dist[b.Index]
			if db < 0 {
				continue
			}
			for _, succ := range b.Succs {
				if !s.contains(succ) || succ == l.Header {
					continue
				}
				nd := db + s.weight[succ.Index]
				if cur := s.dist[succ.Index]; cur < 0 || nd < cur {
					s.dist[succ.Index] = nd
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
		if d := s.dist[latch.Index]; d >= 0 && d < min {
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
// order. g is the instruction graph of info's function.
func selfDepLoops(g *InstrGraph, info *cfg.Info) []selfDepLoop {
	var out []selfDepLoop
	for _, l := range info.Loops {
		if phis := selfDepPhis(g, l); len(phis) > 0 {
			out = append(out, selfDepLoop{loop: l, phis: phis})
		}
	}
	return out
}

// classifySelfDeps produces the final report of self-dependent loops under
// the finished cut set.
func classifySelfDeps(g *InstrGraph, loops []selfDepLoop, cut []bool) []SelfDepInfo {
	var out []SelfDepInfo
	for _, sd := range loops {
		out = append(out, SelfDepInfo{
			Header: sd.loop.Header,
			Phis:   sd.phis,
			Case:   classifyLoop(g, sd.loop, cut),
		})
	}
	return out
}
