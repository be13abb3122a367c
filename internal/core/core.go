// Package core implements the paper's primary contribution: the idempotent
// region construction algorithm (§4).
//
// A function is partitioned into idempotent regions by:
//
//  1. Program transformation (§4.1): scalar stack slots are promoted to
//     pseudoregisters, the function is converted to SSA (removing all
//     artificial clobber antidependences except φ self-dependences at loop
//     headers), and redundancy elimination (Fig. 5) deletes memory
//     antidependences that are not clobber antidependences.
//  2. Cutting memory-level antidependences (§4.2.1): each surviving
//     antidependence (a, b) contributes a candidate set — the instructions
//     that dominate b but not a (Lemma 1), plus b itself — and a greedy
//     hitting set with the §4.3 loop-depth heuristic chooses cut points.
//     A cut before instruction S starts a new region at S.
//  3. Cutting self-dependent pseudoregister antidependences (§4.2.2):
//     loop-header φs that depend on themselves are register-allocatable
//     without clobbering iff their loop contains no cuts (case 1) or at
//     least two cuts on every path through the body (case 2); otherwise
//     the loop is unrolled once if possible (§5) and extra cuts are
//     inserted to establish case 2.
//
// Construct returns the cut set and the materialized region decomposition,
// and checks that no region contains an uncut clobber antidependence — the
// package's own proof obligation, exercised heavily by the property tests.
// Construct checks its cuts against the analyses of its last placement
// round, which describe the function it returns; Check derives its own
// analyses from the function it is given.
package core

import (
	"fmt"
	"sort"

	"idemproc/internal/alias"
	"idemproc/internal/cfg"
	"idemproc/internal/ir"
	"idemproc/internal/multicut"
	"idemproc/internal/redelim"
	"idemproc/internal/ssa"
)

// Options configure the construction. The zero value disables everything;
// use DefaultOptions for the paper's configuration.
type Options struct {
	// LoopHeuristic enables the §4.3 outermost-loop-first cut placement.
	LoopHeuristic bool
	// RedElim enables the Fig. 5 redundancy elimination pre-pass.
	RedElim bool
	// UnrollLoops enables the §5 single unroll before inserting case-3
	// cuts for self-dependent φs.
	UnrollLoops bool
	// CutAtCalls isolates calls into their own regions (the analysis is
	// intra-procedural, as in the paper's implementation).
	CutAtCalls bool
	// MaxRegionSize, when positive, caps static region sizes by adding
	// cuts (§6.2: shorter regions trade overhead for bounded re-execution
	// cost and detection-latency tolerance). 0 means unbounded — the
	// paper's default of "the longest possible paths".
	MaxRegionSize int
	// BalancedHeuristic replaces the §4.3 depth-lexicographic cut choice
	// with the frequency-weighted score the paper proposes as future
	// work. Ignored unless LoopHeuristic is also set.
	BalancedHeuristic bool
	// PureFuncs, when non-nil, names functions that provably touch no
	// memory (see PureFunctions); calls to them are not forced into their
	// own regions — a first inter-procedural step toward §3's
	// cross-function-boundary opportunity. The callees themselves must
	// then be compiled without region marks (codegen's PureCalls mode
	// arranges both sides).
	PureFuncs map[string]bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{LoopHeuristic: true, RedElim: true, UnrollLoops: true, CutAtCalls: true}
}

// Result is the outcome of region construction for one function.
type Result struct {
	F *ir.Func
	// Cuts marks instructions that begin a new region ("cut before").
	// The function entry is an implicit region header.
	Cuts map[*ir.Value]bool
	// Antideps are the memory antidependences that were cut.
	Antideps []Antidep
	// Regions is the materialized decomposition.
	Regions []*Region
	// SelfDep describes each loop carrying φ self-dependences and how it
	// was resolved.
	SelfDep []SelfDepInfo
	// Stats summarizes the construction.
	Stats Stats
}

// Stats summarizes one construction.
type Stats struct {
	PromotedAllocas   int
	ForwardedLoads    int
	AntidepsCut       int
	CutsFromMulticut  int
	CutsFromCalls     int
	CutsFromSelfDep   int
	CutsFromRetSplit  int
	LoopsUnrolled     int
	Instructions      int
	RegionCount       int
	AvgRegionSize     float64
	LargestRegionSize int
}

// SelfDepCase tells how a self-dependent loop was handled.
type SelfDepCase uint8

const (
	// SelfDepNoCuts is §4.2.2 case 1: the loop contains no cuts; the φ's
	// register is defined outside the loop by the allocator.
	SelfDepNoCuts SelfDepCase = iota
	// SelfDepTwoCuts is case 2: every path through the body crosses ≥2
	// cuts; the allocator double-buffers across region boundaries.
	SelfDepTwoCuts
	// SelfDepInsertedCuts is case 3: cuts were inserted (after an
	// optional unroll) to establish the case-2 invariant.
	SelfDepInsertedCuts
)

func (c SelfDepCase) String() string {
	switch c {
	case SelfDepNoCuts:
		return "no-cuts"
	case SelfDepTwoCuts:
		return "two-cuts"
	case SelfDepInsertedCuts:
		return "inserted-cuts"
	}
	return "?"
}

// SelfDepInfo records one self-dependent loop and its resolution.
type SelfDepInfo struct {
	Header *ir.Block
	Phis   []*ir.Value
	Case   SelfDepCase
}

// MidEnd runs the mid-end every build shares on f, mutating it: alloca
// promotion, SSA construction and constant folding, then, when redElim
// is set, redundancy elimination (Fig. 5) and its clean-up. It returns
// the number of promoted allocas and of forwarded loads and stores.
func MidEnd(f *ir.Func, redElim bool) (promoted, forwarded int) {
	promoted = ssa.PromoteAllocas(f)
	ssa.Build(f)
	ssa.FoldConstants(f)
	if redElim {
		rst := redelim.Run(f, alias.Compute(f))
		forwarded = rst.ForwardedStores + rst.ForwardedLoads
		ssa.PropagateCopies(f)
		ssa.EliminateDeadValues(f)
	}
	return promoted, forwarded
}

// Construct runs the full §4 pipeline on f, mutating it (SSA conversion,
// redundancy elimination, possible loop unrolling) and returning the cut
// placement and region decomposition.
func Construct(f *ir.Func, opts Options) (*Result, error) {
	st := Stats{}

	// §4.1 program transformation, over the same mid-end a conventional
	// build runs, so regions are constructed over the code it would emit.
	st.PromotedAllocas, st.ForwardedLoads = MidEnd(f, opts.RedElim)

	// First placement.
	pl, err := place(f, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// §4.2.2 case 3 with unrolling: unroll offending loops once, then
	// re-place cuts from scratch on the larger body.
	if opts.UnrollLoops {
		unrolled := false
		for _, l := range pl.case3 {
			if UnrollOnce(f, l.Header) {
				st.LoopsUnrolled++
				unrolled = true
			}
		}
		if unrolled {
			pl, err = place(f, opts)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	// Remaining case-3 loops get the fallback: a cut at the header's
	// first real instruction and at each latch's terminator establishes
	// ≥2 cuts on every cycle (every cycle of a natural loop crosses the
	// header once and some latch once).
	for _, l := range pl.case3 {
		if pl.addCut(firstReal(l.Header)) {
			st.CutsFromSelfDep++
		}
		for _, latch := range l.Latches {
			if pl.addCut(latch.Terminator()) {
				st.CutsFromSelfDep++
			}
		}
	}
	// Re-run the self-dependence classification for reporting, now that
	// all cuts are final.
	selfInfos := classifySelfDeps(pl.graph, pl.selfDeps, pl.cut)

	// §5 calling convention: a function with no cuts is split so return
	// values may overwrite parameter registers.
	if len(pl.cuts) == 0 {
		for _, b := range f.Blocks {
			if t := b.Terminator(); t.Op == ir.OpRet {
				pl.addCut(t)
				st.CutsFromRetSplit++
			}
		}
	}

	st.AntidepsCut = len(pl.deps)
	st.CutsFromMulticut = pl.multicutCuts
	st.CutsFromCalls = pl.callCuts

	res := &Result{
		F:        f,
		Cuts:     pl.cuts,
		Antideps: pl.deps,
		SelfDep:  selfInfos,
		Stats:    st,
	}
	res.Regions = pl.graph.materialize(pl.cut)
	res.fillStats()
	// The check reuses the last round's analyses. Since that round,
	// Construct has only added cuts (the case-3 fallback and the return
	// split); it has not changed f. Deriving the analyses again, as Check
	// does, would run the same deterministic functions on the same
	// function and give the same values in the same order. The check
	// still tests the final cuts and regions against them.
	if err := check(res, pl.graph, pl.deps, pl.selfDeps); err != nil {
		return nil, fmt.Errorf("core: constructed decomposition fails verification: %w", err)
	}
	return res, nil
}

func (r *Result) fillStats() {
	n := 0
	for _, b := range r.F.Blocks {
		for _, v := range b.Instrs {
			if real(v) {
				n++
			}
		}
	}
	r.Stats.Instructions = n
	r.Stats.RegionCount = len(r.Regions)
	total, largest := 0, 0
	for _, reg := range r.Regions {
		total += len(reg.Instrs)
		if len(reg.Instrs) > largest {
			largest = len(reg.Instrs)
		}
	}
	if len(r.Regions) > 0 {
		r.Stats.AvgRegionSize = float64(total) / float64(len(r.Regions))
	}
	r.Stats.LargestRegionSize = largest
}

// placement is the intermediate state of one cut-placement round.
type placement struct {
	// graph is f's instruction graph, deps its memory antidependences
	// and selfDeps its loops with self-dependent φs: cut placement adds
	// cuts but does not change f, so they serve materialization and the
	// final check.
	graph *InstrGraph
	// cuts is the cut set and cut the same set as per-position flags.
	cuts     map[*ir.Value]bool
	cut      []bool
	deps     []Antidep
	selfDeps []selfDepLoop
	// case3 are the loops of selfDeps that the round's cuts leave in
	// §4.2.2 case 3.
	case3        []*cfg.Loop
	multicutCuts int
	callCuts     int
}

// addCut cuts before the real instruction v and reports whether v was
// not cut already.
func (pl *placement) addCut(v *ir.Value) bool {
	p := pl.graph.posOf(v)
	if pl.cut[p] {
		return false
	}
	pl.cut[p] = true
	pl.cuts[v] = true
	return true
}

// real reports whether v is an executable instruction (φs and params are
// bookkeeping, not execution steps).
func real(v *ir.Value) bool {
	return v.Op != ir.OpPhi && v.Op != ir.OpParam
}

// firstReal returns b's first executable instruction (every well-formed
// block has at least a terminator).
func firstReal(b *ir.Block) *ir.Value {
	for _, v := range b.Instrs {
		if real(v) {
			return v
		}
	}
	panic("core: block with no real instruction")
}

// place runs one round of analyses and cut selection (§4.2.1 plus forced
// call cuts), then classifies self-dependent loops against those cuts.
// Unsolvable cut-placement instances (multicut.ErrEmptySet) surface as
// errors: they are reachable from user .idc input, so the compiler driver
// must report them rather than crash.
func place(f *ir.Func, opts Options) (*placement, error) {
	g, info, deps := analyze(f)
	// The hitting-set solver numbers instructions by graph position.
	depth := make([]int, len(g.Instrs))
	for p, v := range g.Instrs {
		depth[p] = info.Depth[v.Block.Index]
	}

	// Candidate sets (Lemma 1 + the write endpoint itself): the write,
	// and each real instruction that dominates it but not the read.
	var sets [][]int
	for _, d := range deps {
		pa, pb := g.posOf(d.Read), g.posOf(d.Write)
		g.newWalk()
		g.reach(pb)
		set := []int{pb}
		// Walk b's dominator chain (blocks dominating b's block, plus
		// b's block itself up to b's position).
		for blk := d.Write.Block; blk != nil; blk = info.Idom[blk.Index] {
			first, end := g.blockStart[blk.Index], g.blockStart[blk.Index+1]
			if blk == d.Write.Block {
				end = pb + 1
			}
			// The instruction at px dominates the read when its block
			// strictly dominates the read's, or when it is in the read's
			// block at or before the read.
			dominates := blk != d.Read.Block && info.StrictlyDominates(blk, d.Read.Block)
			for px := first; px < end; px++ {
				if blk == d.Read.Block {
					dominates = px <= pa
				}
				if !dominates && g.reach(px) {
					set = append(set, px)
				}
			}
		}
		sort.Ints(set)
		sets = append(sets, set)
	}

	chosen, err := multicut.Solve(multicut.Problem{
		Sets:             sets,
		Depth:            depth,
		UseLoopHeuristic: opts.LoopHeuristic,
		Balanced:         opts.LoopHeuristic && opts.BalancedHeuristic,
	})
	if err != nil {
		return nil, fmt.Errorf("cut placement for @%s: %w", f.Name, err)
	}
	pl := &placement{
		graph:    g,
		cuts:     map[*ir.Value]bool{},
		cut:      make([]bool, len(g.Instrs)),
		deps:     deps,
		selfDeps: selfDepLoops(g, info),
	}
	for _, c := range chosen {
		pl.addCut(g.Instrs[c])
	}
	pl.multicutCuts = len(pl.cuts)

	// Calls become single-instruction regions: cut before the call and
	// before its successor instruction, the next position (a call is not
	// a terminator).
	if opts.CutAtCalls {
		for p, v := range g.Instrs {
			if v.Op != ir.OpCall {
				continue
			}
			if opts.PureFuncs[v.Aux] {
				// A pure callee touches no memory and is re-executed
				// wholesale with its caller's region: no cut needed.
				continue
			}
			if pl.addCut(v) {
				pl.callCuts++
			}
			if pl.addCut(g.Instrs[p+1]) {
				pl.callCuts++
			}
		}
	}

	// Optional §6.2 region size cap (before the self-dependence
	// classification, which must see the final cut density per loop).
	if opts.MaxRegionSize > 0 {
		limitRegionSizes(g, pl.cut, pl.cuts, opts.MaxRegionSize)
	}

	// Classify self-dependent loops to find case-3 offenders.
	for _, sd := range pl.selfDeps {
		if classifyLoop(g, sd.loop, pl.cut) == SelfDepInsertedCuts {
			pl.case3 = append(pl.case3, sd.loop)
		}
	}
	return pl, nil
}
