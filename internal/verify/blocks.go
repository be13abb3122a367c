package verify

import "idemproc/internal/isa"

// blocks is the basic-block structure both fixpoints keep their states
// on, computed once per Verify over the edges provSuccs draws. A leader
// is the program entry, every region start, every branch, call or return
// target, and every pc that does not have exactly one predecessor whose
// only successor is that pc. Every other pc's one predecessor is the pc
// before it, so a block runs from its leader to the pc before the next
// leader, and every successor of a block's last pc is a leader.
type blocks struct {
	of    []int32 // the block a leader pc starts, -1 at every other pc
	start []int   // each block's leader, ascending
	// Block b's successors are succ[succOff[b]:succOff[b+1]], in the
	// order provSuccs lists them, out-of-range targets left out.
	succOff []int32
	succ    []int32
}

// leader reports whether a block starts at pc.
func (g *blocks) leader(pc int) bool { return g.of[pc] >= 0 }

// end returns the pc after block b's last.
func (g *blocks) end(b int32) int {
	if int(b)+1 < len(g.start) {
		return g.start[b+1]
	}
	return len(g.of)
}

// succs returns block b's successor blocks.
func (g *blocks) succs(b int32) []int32 { return g.succ[g.succOff[b]:g.succOff[b+1]] }

// regionStart returns the first pc of the region entered at entry (a MARK
// pc, or the program entry for the startup pseudo-region); it may lie
// past the last instruction.
func regionStart(instrs []isa.Instr, entry int) int {
	if instrs[entry].Op == isa.MARK {
		return entry + 1
	}
	return entry
}

// isRegionMark reports whether in opens a region Verify analyzes.
func isRegionMark(in isa.Instr) bool { return in.Op == isa.MARK && in.Shadow == 0 }

// buildBlocks finds the leaders and each block's successors.
func (vf *verifier) buildBlocks() {
	instrs := vf.p.Instrs
	n := len(instrs)
	lead := make([]bool, n)
	npred := make([]uint8, n) // saturates at 2
	for pc, in := range instrs {
		jump := in.Shadow == 0 && !in.Meta && in.IsBranch()
		for _, s := range vf.provSuccs(pc) {
			if s < 0 || s >= n {
				continue
			}
			lead[s] = lead[s] || jump
			npred[s] = min(npred[s]+1, 2)
		}
	}
	lead[vf.p.Entry] = true
	for pc, in := range instrs {
		if pc == vf.p.Entry || isRegionMark(in) {
			if s := regionStart(instrs, pc); s < n {
				lead[s] = true
			}
		}
	}
	g := &vf.blocks
	g.of = make([]int32, n)
	for pc := range instrs {
		g.of[pc] = -1
		if lead[pc] || npred[pc] != 1 {
			g.of[pc] = int32(len(g.start))
			g.start = append(g.start, pc)
		}
	}
	g.succOff = make([]int32, 1, len(g.start)+1)
	for b := range g.start {
		for _, s := range vf.provSuccs(g.end(int32(b)) - 1) {
			if s >= 0 && s < n {
				g.succ = append(g.succ, g.of[s])
			}
		}
		g.succOff = append(g.succOff, int32(len(g.succ)))
	}
}

// postorder returns the blocks reachable from entry in depth-first
// postorder, visiting successors in the order succs lists them.
func (g *blocks) postorder(entry int32) []int32 {
	type frame struct {
		b    int32
		next int // index into succs(b) of the next successor to visit
	}
	seen := make([]bool, len(g.start))
	seen[entry] = true
	stack := []frame{{b: entry}}
	var post []int32
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if succs := g.succs(f.b); f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	return post
}
