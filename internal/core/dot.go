package core

import (
	"fmt"
	"strings"

	"idemproc/internal/ir"
)

// DotRegions renders the region decomposition as a Graphviz digraph:
// one node per instruction (clustered by basic block), execution edges,
// region headers double-circled, and cut boundaries drawn as bold red
// edges. `idemc -dot` emits it; pipe into `dot -Tsvg` to visualize.
func DotRegions(res *Result) string {
	g := BuildInstrGraph(res.F)
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", res.F.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\", fontsize=10];\n")

	// Color instructions by their (first) region.
	palette := []string{
		"#dbeafe", "#dcfce7", "#fee2e2", "#fef9c3", "#f3e8ff",
		"#cffafe", "#fde68a", "#e2e8f0", "#fbcfe8", "#d9f99d",
	}
	regionOf := map[*ir.Value]int{}
	for _, r := range res.Regions {
		for _, v := range r.Instrs {
			if _, seen := regionOf[v]; !seen {
				regionOf[v] = r.Index
			}
		}
	}
	headers := map[*ir.Value]int{}
	for _, r := range res.Regions {
		headers[r.Header] = r.Index
	}

	id := func(p int) string { return fmt.Sprintf("n%d", p) }
	for bi, blk := range res.F.Blocks {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q; style=dashed; color=gray;\n", bi, blk.Name)
		for _, v := range blk.Instrs {
			if v.Op == ir.OpPhi || v.Op == ir.OpParam {
				continue
			}
			label := strings.ReplaceAll(v.LongString(), `"`, `'`)
			fill := palette[regionOf[v]%len(palette)]
			shape := "box"
			extra := ""
			if ri, isHdr := headers[v]; isHdr {
				shape = "box"
				extra = fmt.Sprintf(", penwidth=2.5, xlabel=\"R%d\"", ri)
			}
			fmt.Fprintf(&b, "    %s [label=%q, shape=%s, style=filled, fillcolor=%q%s];\n",
				id(g.posOf(v)), label, shape, fill, extra)
		}
		b.WriteString("  }\n")
	}
	for p := range g.Instrs {
		for _, s := range g.succs(p) {
			if res.Cuts[g.Instrs[s]] {
				fmt.Fprintf(&b, "  %s -> %s [color=red, penwidth=2, label=\"cut\"];\n", id(p), id(s))
			} else {
				fmt.Fprintf(&b, "  %s -> %s;\n", id(p), id(s))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
