package core

import (
	"fmt"
	"sort"
	"strings"

	"idemproc/internal/ir"
)

// Region is one element of the decomposition: a single-entry collection of
// instructions reachable from Header without crossing a cut (§2.3's
// definition — a region is a set of idempotent paths sharing an entry).
type Region struct {
	// Index is the region's position in Result.Regions.
	Index int
	// Header is the region's entry instruction.
	Header *ir.Value
	// Instrs are the instructions belonging to the region, in a
	// deterministic order. Instructions may belong to several regions
	// (regions may overlap; the decomposition only requires distinct
	// headers).
	Instrs []*ir.Value
}

// String renders a short description.
func (r *Region) String() string {
	return fmt.Sprintf("region %d @%s (%d instrs)", r.Index, r.Header.LongString(), len(r.Instrs))
}

// InstrGraph is the instruction-level successor relation used for region
// membership and verification. φs and params are skipped: they are
// bookkeeping, not execution steps. The real instructions are numbered by
// position in block order, so position 0 is the function's entry, and
// successors are stored as positions. A graph describes its function as
// it was when built, and its walks share scratch slices, so it is not
// safe for concurrent use.
type InstrGraph struct {
	// Instrs lists the real instructions; Instrs[p] is at position p.
	Instrs []*ir.Value
	// succ[succStart[p]:succStart[p+1]] are p's successor positions.
	succ, succStart []int
	// blockStart[i] is the first position of block i; its real
	// instructions hold the positions up to blockStart[i+1].
	blockStart []int
	// pos[id] is the position of the value with that ID, or -1; posOf
	// also tests that the value is the one at that position.
	pos []int32
	// seen is walk scratch: position p was reached by the current walk
	// when seen[p] == walk.
	seen []int
	walk int
	// loops is the loop analyses' scratch, made on first use.
	loops *loopScratch
}

// BuildInstrGraph constructs the execution successor graph of f.
func BuildInstrGraph(f *ir.Func) *InstrGraph {
	f.Renumber()
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if real(v) {
				n++
			}
		}
	}
	g := &InstrGraph{
		Instrs:     make([]*ir.Value, 0, n),
		blockStart: make([]int, len(f.Blocks)+1),
		pos:        make([]int32, f.NumValues()),
	}
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, b := range f.Blocks {
		g.blockStart[i] = len(g.Instrs)
		for _, v := range b.Instrs {
			if real(v) {
				g.pos[v.ID] = int32(len(g.Instrs))
				g.Instrs = append(g.Instrs, v)
			}
		}
	}
	g.blockStart[len(f.Blocks)] = n
	// A block's real instructions hold consecutive positions: each falls
	// through to the next, and the last one (the terminator) branches to
	// the first real instruction of each successor block.
	g.succStart = make([]int, n+1)
	g.succ = make([]int, 0, n+len(f.Blocks))
	for i, b := range f.Blocks {
		first, end := g.blockStart[i], g.blockStart[i+1]
		for q := first; q < end; q++ {
			g.succStart[q] = len(g.succ)
			if q+1 < end {
				g.succ = append(g.succ, q+1)
			}
		}
		if end > first {
			for _, s := range b.Succs {
				g.succ = append(g.succ, g.blockStart[s.Index])
			}
		}
	}
	g.succStart[n] = len(g.succ)
	g.seen = make([]int, n)
	return g
}

// posOf returns v's position, or -1 when v is not a real instruction of
// the graph's function.
func (g *InstrGraph) posOf(v *ir.Value) int {
	if v.ID < 0 || v.ID >= len(g.pos) {
		return -1
	}
	p := int(g.pos[v.ID])
	if p < 0 || g.Instrs[p] != v {
		return -1
	}
	return p
}

// succs returns the successor positions of position p.
func (g *InstrGraph) succs(p int) []int { return g.succ[g.succStart[p]:g.succStart[p+1]] }

// newWalk empties the set of positions reached.
func (g *InstrGraph) newWalk() { g.walk++ }

// reach adds p to the positions reached by the current walk and reports
// whether it was new.
func (g *InstrGraph) reach(p int) bool {
	if g.seen[p] == g.walk {
		return false
	}
	g.seen[p] = g.walk
	return true
}

// cutFlags returns cut[p] for every position: whether the instruction
// there is in cuts. A cut that is not a real instruction of the graph's
// function is an error, which names the lowest-numbered such cut.
func (g *InstrGraph) cutFlags(cuts map[*ir.Value]bool) ([]bool, error) {
	cut := make([]bool, len(g.Instrs))
	var bad *ir.Value
	for v, c := range cuts {
		p := g.posOf(v)
		if p < 0 {
			if bad == nil || v.ID < bad.ID {
				bad = v
			}
			continue
		}
		cut[p] = c
	}
	if bad != nil {
		return nil, fmt.Errorf("cut at %s, which is not a real instruction of the function", bad.LongString())
	}
	return cut, nil
}

// mustCutFlags is cutFlags for cut sets built for the graph's function.
func (g *InstrGraph) mustCutFlags(cuts map[*ir.Value]bool) []bool {
	cut, err := g.cutFlags(cuts)
	if err != nil {
		panic("core: " + err.Error())
	}
	return cut
}

// Materialize derives the region decomposition from a cut set: one region
// per header (the entry plus every cut point), each containing the
// instructions reachable from its header without entering another header.
func (g *InstrGraph) Materialize(cuts map[*ir.Value]bool) []*Region {
	return g.materialize(g.mustCutFlags(cuts))
}

// materialize is Materialize over per-position cut flags.
func (g *InstrGraph) materialize(cut []bool) []*Region {
	var regions []*Region
	g.regions(cut, func(header int, members []int) {
		r := &Region{Index: len(regions), Header: g.Instrs[header], Instrs: make([]*ir.Value, len(members))}
		for i, p := range members {
			r.Instrs[i] = g.Instrs[p]
		}
		regions = append(regions, r)
	})
	return regions
}

// EachRegion is Materialize in positions: it calls fn for each region in
// header order with the header's position and the region's positions in
// ascending order. members is reused between calls.
func (g *InstrGraph) EachRegion(cuts map[*ir.Value]bool, fn func(header int, members []int)) {
	g.regions(g.mustCutFlags(cuts), fn)
}

// regions is EachRegion over per-position cut flags.
func (g *InstrGraph) regions(cut []bool, fn func(header int, members []int)) {
	members := make([]int, 0, len(g.Instrs))
	stack := make([]int, 0, len(g.Instrs))
	for h := range g.Instrs {
		if h != 0 && !cut[h] {
			continue
		}
		g.newWalk()
		g.reach(h)
		members, stack = members[:0], append(stack[:0], h)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, p)
			for _, s := range g.succs(p) {
				if !cut[s] && g.reach(s) {
					stack = append(stack, s)
				}
			}
		}
		sort.Ints(members)
		fn(h, members)
	}
}

// DumpRegions renders the decomposition for human inspection (used by
// cmd/idemc and the examples).
func DumpRegions(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func @%s: %d instructions, %d regions, %d cuts\n",
		res.F.Name, res.Stats.Instructions, len(res.Regions), len(res.Cuts))
	regionOf := map[*ir.Value][]int{}
	for _, r := range res.Regions {
		for _, v := range r.Instrs {
			regionOf[v] = append(regionOf[v], r.Index)
		}
	}
	for _, blk := range res.F.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, v := range blk.Instrs {
			if !real(v) {
				fmt.Fprintf(&b, "         │ %s\n", v.LongString())
				continue
			}
			if res.Cuts[v] {
				fmt.Fprintf(&b, "  ─────── cut ───────\n")
			}
			ids := regionOf[v]
			tag := make([]string, len(ids))
			for i, id := range ids {
				tag[i] = fmt.Sprint(id)
			}
			fmt.Fprintf(&b, "  R{%-5s}│ %s\n", strings.Join(tag, ","), v.LongString())
		}
	}
	return b.String()
}
