package core

import (
	"sort"

	"idemproc/internal/ir"
)

// limitRegionSizes augments the cut set to shorten the paths through
// regions of more than maxSize instructions, implementing §6.2's
// observation that "path lengths are often easily reduced as needed to
// suit application demands" (shorter regions bound both re-execution cost
// and the detection-latency window).
//
// Such a region is split by cutting at its BFS frontier: the
// instructions first reached at distance maxSize from the header. This
// bounds the BFS depth from each header, not the region's size: a region
// of more than maxSize instructions whose walk dies out before depth
// maxSize (it branches wide but not deep) gets no cut and keeps every
// instruction. Each round strictly adds cuts, so the loop terminates.
// cut holds the cuts as per-position flags; both it and cuts grow.
func limitRegionSizes(g *InstrGraph, cut []bool, cuts map[*ir.Value]bool, maxSize int) int {
	if maxSize <= 0 {
		return 0
	}
	added := 0
	var long []int
	for round := 0; round < 64; round++ {
		// Find the round's long regions first: the frontier cuts added
		// below must not reshape the regions measured this round.
		long = long[:0]
		g.regions(cut, func(header int, members []int) {
			if len(members) > maxSize {
				long = append(long, header)
			}
		})
		grew := false
		for _, h := range long {
			for _, p := range frontierAt(g, h, cut, maxSize) {
				if !cut[p] {
					cut[p] = true
					cuts[g.Instrs[p]] = true
					added++
					grew = true
				}
			}
		}
		if !grew {
			return added
		}
	}
	return added
}

// frontierAt returns the positions at BFS depth exactly `depth` from
// header, in ascending order, walking only edges that do not enter
// existing cuts.
func frontierAt(g *InstrGraph, header int, cut []bool, depth int) []int {
	g.newWalk()
	g.reach(header)
	cur := []int{header}
	var next []int
	for d := 0; d < depth; d++ {
		next = next[:0]
		for _, p := range cur {
			for _, s := range g.succs(p) {
				if (cut[s] && s != header) || !g.reach(s) {
					continue
				}
				next = append(next, s)
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur, next = next, cur
	}
	sort.Ints(cur)
	return cur
}
