// Package verify is a machine-level translation validator for the paper's
// §2.1 idempotence criterion. It re-derives, directly from a linked
// codegen.Program's flat isa.Instr stream — independently of every
// compiler pass that constructed it — the guarantee the whole system
// rests on: within a MARK-delimited region, no location is written after
// an exposed read (a read of the region's live-in state), so any region
// can be re-executed from its entry point with identical results.
//
// The checker rebuilds the machine-level CFG from branch targets and MARK
// boundaries (interprocedurally: CALL edges into callees, RET edges
// recovered through a tracked link register, with an all-callers fallback
// when LR is opaque), then runs a forward may/must dataflow per region
// over an abstract location model:
//
//   - registers, with SP/LR/RP exempt (the recovery contract snapshots
//     SP and LR at every MARK and restores them on re-execution, and RP
//     is written by the mark itself — see internal/machine);
//   - stack words by (base, offset), where a base is a region-entry-SP
//     provenance class and frames collapse onto fresh symbolic bases
//     under recursion (the stack-discipline axiom: distinct frames do
//     not overlap);
//   - globals by absolute word address with per-global extents;
//   - opaque symbolic bases for live-in pointer values.
//
// The alias rules deliberately mirror internal/alias's IR-level
// precision: any load/store pair the IR analysis called may-aliasing was
// already cut apart by redelim/multicut, so the machine model never
// claims no-alias where the IR would not, and conservative answers can
// never flag correct output (no false positives on the workload matrix).
// Mutations that break the machine-level discipline — a dropped MARK, a
// store reordered across a load, a retargeted spill slot — are caught by
// the exact-offset and provenance rules. Verify never panics on
// malformed input; structural damage surfaces as KindBadBranch
// violations instead. See docs/verify.md.
package verify

import (
	"sort"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// Kind classifies a violation of the region re-execution contract.
type Kind uint8

const (
	// KindClobberReg: a register with an exposed in-region read is
	// overwritten later in the same region (§4.4 broken).
	KindClobberReg Kind = iota
	// KindClobberMem: a store may-aliases a memory location with an
	// exposed in-region read (§2.1 clobber antidependence).
	KindClobberMem
	// KindBadBranch: control flow leaves the instruction stream, or an
	// operand names a register outside the register file (malformed or
	// truncated program).
	KindBadBranch
	// KindBudget: the dataflow did not converge within the analysis
	// budget; the region could not be proven safe.
	KindBudget
)

func (k Kind) String() string {
	switch k {
	case KindClobberReg:
		return "register-clobber"
	case KindClobberMem:
		return "memory-clobber"
	case KindBadBranch:
		return "bad-branch"
	case KindBudget:
		return "analysis-budget"
	}
	return "unknown"
}

// Violation reports one breach of the criterion: the instruction at PC,
// inside the region entered at Region (the pc of its MARK, or the
// program entry for the startup pseudo-region), writes Loc even though
// Loc has an exposed read earlier in the region.
type Violation struct {
	Region int
	PC     int
	Loc    Loc
	Kind   Kind
}

// Report is the result of verifying one program.
type Report struct {
	Violations []Violation
	// Regions is the number of regions analyzed (every MARK plus the
	// startup pseudo-region).
	Regions int
	// Skipped is set when the program carries no region marks (compiled
	// non-idempotent) and there is nothing to check.
	Skipped bool
}

// OK reports whether the program passed (a skipped program is trivially
// OK — there is no contract to check).
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Verify checks every region of p against the §2.1 criterion. It never
// panics: malformed programs produce KindBadBranch violations. Programs
// without marks (p.Marks == 0) are Skipped.
func Verify(p *codegen.Program) *Report {
	rep := &Report{}
	if p == nil || len(p.Instrs) == 0 {
		return rep
	}
	if p.Marks == 0 {
		rep.Skipped = true
		return rep
	}
	if rep.Violations = structural(p); len(rep.Violations) > 0 {
		return rep
	}
	vf := newVerifier(p)
	vf.analyzeRegion(p.Entry)
	rep.Regions++
	for pc, in := range p.Instrs {
		if isRegionMark(in) {
			vf.analyzeRegion(pc)
			rep.Regions++
		}
	}
	rep.Violations = vf.out
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	return rep
}

// structural reports damage that would take either pass outside the
// instruction stream or the register file: an entry pc outside the
// program, or a register operand outside isa.NumRegs. Artifacts decode
// any register byte, so this is checked before any analysis runs.
func structural(p *codegen.Program) []Violation {
	if p.Entry < 0 || p.Entry >= len(p.Instrs) {
		return []Violation{{Region: p.Entry, PC: p.Entry, Loc: Loc{Space: SpaceAny}, Kind: KindBadBranch}}
	}
	var out []Violation
	for pc, in := range p.Instrs {
		if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
			out = append(out, Violation{Region: p.Entry, PC: pc, Loc: Loc{Space: SpaceAny}, Kind: KindBadBranch})
		}
	}
	return out
}

// verifier holds the per-program analysis context: symbol allocation is
// memoized so the fixpoint converges (a join point always degrades to
// the same fresh symbol), and the caller map backs the RET fallback.
type verifier struct {
	p       *codegen.Program
	gbase   []int64          // sorted global base addresses (extent table)
	callers map[string][]int // function name -> return-site pcs
	blocks  blocks           // leaders and block successors (see blocks.go)
	prov    []provState      // register + memory provenance at each block entry (see prov.go)

	// entryProv is the pre-pass's facts at the start of the region under
	// analysis; slot reads use it to look up entry-content provenance.
	entryProv *provState

	// Worklist storage for the region pass, indexed by pc and reused by
	// every region: the state at each block entry reached (nil
	// elsewhere), the pcs that hold one, the FIFO worklist and its
	// membership flags. free recycles states between blocks and regions;
	// succ backs the successor lists step returns.
	states  []*state
	touched []int
	wl      []int
	inWL    []bool
	free    []*state
	succ    [2]int

	nextID  int64
	entryID [isa.NumRegs]int64 // region-entry register symbols
	pcID    []int64            // opaque per-instruction results (0 = none yet)
	slotID  map[memKey]int64   // region-entry contents of stack slots
	joinID  map[joinKey]int64  // degraded values at join points
	memSlot map[memKey]int64   // stable slot index for join keying

	seen map[vkey]bool
	out  []Violation
}

type joinKey struct {
	pc   int
	slot int64
}

type vkey struct {
	region int
	pc     int
	kind   Kind
}

func newVerifier(p *codegen.Program) *verifier {
	vf := &verifier{
		p:       p,
		callers: map[string][]int{},
		states:  make([]*state, len(p.Instrs)),
		inWL:    make([]bool, len(p.Instrs)),
		pcID:    make([]int64, len(p.Instrs)),
		slotID:  map[memKey]int64{},
		joinID:  map[joinKey]int64{},
		memSlot: map[memKey]int64{},
		seen:    map[vkey]bool{},
	}
	for _, base := range p.GlobalBase {
		vf.gbase = append(vf.gbase, base)
	}
	sort.Slice(vf.gbase, func(i, j int) bool { return vf.gbase[i] < vf.gbase[j] })
	for pc, in := range p.Instrs {
		if in.Op == isa.CALL && in.Shadow == 0 {
			vf.callers[in.Sym] = append(vf.callers[in.Sym], pc+1)
		}
	}
	vf.nextID = 1
	for r := range vf.entryID {
		vf.entryID[r] = vf.fresh()
	}
	vf.buildBlocks()
	vf.provPass()
	return vf
}

func (vf *verifier) fresh() int64 {
	id := vf.nextID
	vf.nextID++
	return id
}

// anchor finds the global object containing absolute word address a.
func (vf *verifier) anchor(a int64) (int64, bool) {
	if a < 1 || a >= vf.p.GlobalEnd || len(vf.gbase) == 0 {
		return 0, false
	}
	i := sort.Search(len(vf.gbase), func(i int) bool { return vf.gbase[i] > a })
	if i == 0 {
		return 0, false
	}
	return vf.gbase[i-1], true
}

func (vf *verifier) violate(region, pc int, loc Loc, kind Kind) {
	k := vkey{region, pc, kind}
	if vf.seen[k] {
		return
	}
	vf.seen[k] = true
	vf.out = append(vf.out, Violation{Region: region, PC: pc, Loc: loc, Kind: kind})
}

// analyzeRegion runs the exposure dataflow for the region entered at
// entry (a MARK pc, or the program entry for the startup pseudo-region)
// to a fixpoint over every path that ends at the next MARK or HALT.
//
// States live only at block entries: a worklist of leaders, each walked
// through its block in one scratch state and merged into its successors
// at the block's end. A RET whose tracked LR lands inside a block stores
// a state there too, and a walk that reaches a stored state merges into
// it. The budget counts instruction steps.
func (vf *verifier) analyzeRegion(entry int) {
	instrs := vf.p.Instrs
	start := regionStart(instrs, entry)
	if start >= len(instrs) {
		vf.violate(entry, entry, Loc{Space: SpaceAny}, KindBadBranch)
		return
	}
	for _, pc := range vf.touched {
		vf.free = append(vf.free, vf.states[pc])
		vf.states[pc] = nil
		vf.inWL[pc] = false
	}
	vf.states[start] = vf.entryState(start)
	vf.touched = append(vf.touched[:0], start)
	vf.wl = append(vf.wl[:0], start)
	vf.inWL[start] = true
	budget := 128*len(instrs) + 4096
	steps := 0
	for head := 0; head < len(vf.wl); head++ {
		pc := vf.wl[head]
		vf.inWL[pc] = false
		st := vf.newState()
		st.copyFrom(vf.states[pc])
		for {
			if steps == budget {
				vf.violate(entry, entry, Loc{Space: SpaceAny}, KindBudget)
				return
			}
			steps++
			succs := vf.step(st, pc, entry)
			if len(succs) == 1 && vf.inBlock(pc, succs[0]) {
				pc = succs[0]
				continue
			}
			vf.mergeSuccs(st, succs, pc, entry)
			break
		}
	}
}

// inBlock reports whether the walk steps on from pc to s in the same
// scratch state: s follows pc, starts no block, holds no state and is no
// region boundary.
func (vf *verifier) inBlock(pc, s int) bool {
	return s == pc+1 && s < len(vf.p.Instrs) && !vf.blocks.leader(s) &&
		vf.states[s] == nil && !isRegionMark(vf.p.Instrs[s])
}

// mergeSuccs ends a block walk at pc: st, the state leaving pc, flows
// into each successor's stored state (a region boundary commits it), and
// a successor that changes joins the worklist. st becomes the first new
// successor's state, or goes back to the free list.
func (vf *verifier) mergeSuccs(st *state, succs []int, pc, entry int) {
	instrs := vf.p.Instrs
	kept := false // st became a successor's state
	for _, s := range succs {
		if s < 0 || s >= len(instrs) {
			vf.violate(entry, pc, Loc{Space: SpaceAny}, KindBadBranch)
			continue
		}
		if isRegionMark(instrs[s]) {
			continue // region boundary: state commits here
		}
		changed := true
		if cur := vf.states[s]; cur != nil {
			changed = cur.mergeFrom(st, s, vf)
		} else {
			next := st
			if kept {
				next = vf.newState()
				next.copyFrom(st)
			}
			kept = true
			vf.states[s] = next
			vf.touched = append(vf.touched, s)
		}
		if changed && !vf.inWL[s] {
			vf.wl = append(vf.wl, s)
			vf.inWL[s] = true
		}
	}
	if !kept {
		vf.free = append(vf.free, st)
	}
}

// newState takes a state off the free list, or allocates one. Its
// contents are stale: callers overwrite them.
func (vf *verifier) newState() *state {
	n := len(vf.free)
	if n == 0 {
		return &state{}
	}
	st := vf.free[n-1]
	vf.free = vf.free[:n-1]
	return st
}

// to returns pcs as a successor list in the verifier's two-slot buffer.
func (vf *verifier) to(pcs ...int) []int {
	return vf.succ[:copy(vf.succ[:], pcs)]
}

// returnSites lists every return site of the function containing the RET
// at pc. The slice is shared: callers must not modify it.
func (vf *verifier) returnSites(pc int) []int {
	fn := ""
	if pc < len(vf.p.FuncOf) {
		fn = vf.p.FuncOf[pc]
	}
	return vf.callers[fn]
}

// entryState models the machine at a region boundary: SP is the only
// value with full provenance (stack base 0); every other register holds
// an opaque but fixed live-in value, upgraded with whatever the
// whole-program pre-pass proved about it — a known constant becomes a
// real constant (MaxRegionSize splits routinely strand `movi`s just
// before a MARK), and a global-object anchor tags the symbol so
// different-object addresses stop may-aliasing.
func (vf *verifier) entryState(start int) *state {
	st := vf.newState()
	st.eregs, st.wregs = 0, 0
	st.mem, st.emem, st.wmem = st.mem[:0], st.emem[:0], st.wmem[:0]
	pv := vf.provAt(start)
	vf.entryProv = pv
	for r := 0; r < isa.NumRegs; r++ {
		st.regs[r] = val{kind: vSym, base: vf.entryID[r], exact: true, rigid: true}
		if pv.reached {
			if f := pv.reg(isa.Reg(r)); f.ck {
				st.regs[r] = vconst(f.cv)
			} else {
				st.regs[r].obj = f.obj
			}
		}
	}
	st.regs[isa.SP] = val{kind: vStack, base: 0, obj: -1, exact: true, rigid: true}
	return st
}
