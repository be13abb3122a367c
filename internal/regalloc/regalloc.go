// Package regalloc assigns physical registers and spill slots to virtual
// registers by linear scan, and implements the paper's §4.4 code
// generation constraint: every pseudoregister live-in to an idempotent
// region is kept live-out of it, so region inputs are never overwritten
// and no artificial clobber antidependence re-emerges.
//
// The input is virtual machine code (package codegen builds it): a CFG of
// VInstrs over an unbounded set of typed virtual registers. The allocator
// computes per-instruction liveness, builds conservative live intervals,
// extends the interval of every region live-in to the end of its region
// (the §4.4 rule), spills what does not fit — including everything live
// across a call, as all registers are caller-saved — and returns the
// assignment. It also checks the §4.2.2 guarantee mechanically: a virtual
// register that is live-in to a region must not be redefined inside it.
package regalloc

import (
	"fmt"
	"math/bits"
	"sort"

	"idemproc/internal/isa"
)

// VReg is a virtual register id. Ids are dense: 0 is the first vreg and
// every id is below VFunc.NumVRegs.
type VReg int

// NoVReg marks an unused operand slot.
const NoVReg VReg = -1

// Kind discriminates pseudo-instructions from plain ops.
type Kind uint8

const (
	// KNormal is a plain machine operation on virtual registers.
	KNormal Kind = iota
	// KCall is a call pseudo-op: Args are passed per the calling
	// convention, Rd (if any) receives the result.
	KCall
	// KRet is a return pseudo-op: Rs1 (if any) is the return value.
	KRet
	// KMark opens an idempotent region.
	KMark
	// KParam defines Rd as the Imm'th incoming parameter (expanded into a
	// move from the argument register at the physical stage).
	KParam
	// KAlloca defines Rd as the address of the frame's alloca area plus
	// Imm words.
	KAlloca
)

// VInstr is a virtual-register machine instruction.
type VInstr struct {
	Kind Kind
	Op   isa.Op
	// Rd is the defined vreg (NoVReg if none); Rs1/Rs2 the sources.
	Rd, Rs1, Rs2 VReg
	Imm          int64
	FImm         float64
	Sym          string
	// Target is the destination block index for branches.
	Target int
	// Target2 is the fallthrough/else block for two-way branches.
	Target2 int
	// Args are call arguments in order.
	Args []VReg
}

// Uses appends the vregs read by the instruction to dst.
func (v *VInstr) Uses(dst []VReg) []VReg {
	if v.Rs1 != NoVReg {
		dst = append(dst, v.Rs1)
	}
	if v.Rs2 != NoVReg {
		dst = append(dst, v.Rs2)
	}
	for _, a := range v.Args {
		dst = append(dst, a)
	}
	return dst
}

// VBlock is a basic block of virtual code.
type VBlock struct {
	Instrs []VInstr
	Succs  []int
}

// VFunc is a function of virtual code plus the metadata the allocator
// needs.
type VFunc struct {
	Name   string
	Blocks []VBlock
	// NumVRegs bounds vreg ids; FloatReg[v] marks float vregs.
	NumVRegs int
	FloatReg []bool
	// Params lists the parameter vregs in declaration order.
	Params []VReg
	// AllocaSlots is the number of frame words reserved for allocas
	// (codegen references them via SP before allocation).
	AllocaSlots int
	// Regions lists the idempotent regions (nil for a conventional,
	// non-idempotent compile).
	Regions []Region
}

// Region is an idempotent region at the virtual-code level: its header
// position and the set of instruction positions it contains. Positions
// are global linear indices (block order, instruction order).
type Region struct {
	Header    int
	Positions []int
}

// Assignment is the allocator's result.
type Assignment struct {
	// RegOf[v] is the physical register of vreg v, valid if !Spilled[v].
	RegOf []isa.Reg
	// Spilled[v] marks stack-allocated vregs; SlotOf[v] is the frame slot
	// (word offset from SP, after the alloca area).
	Spilled []bool
	SlotOf  []int
	// FrameSlots is the number of spill slots used (frame layout:
	// [saved lr][allocas][spill slots]).
	FrameSlots int
	// SpillLoads and SpillStores estimate the code-size cost (for stats).
	SpillLoads, SpillStores int
}

// Options configure the allocation.
type Options struct {
	// Idempotent enables the §4.4 live-in-preservation constraint over
	// VFunc.Regions.
	Idempotent bool
}

// LiveInViolation reports a region live-in redefined inside its region —
// an artificial clobber the current cut placement cannot allocate away.
// Codegen repairs it by starting a new region at DefPos.
type LiveInViolation struct {
	Func   string
	VReg   VReg
	Header int
	DefPos int
}

func (e *LiveInViolation) Error() string {
	return fmt.Sprintf("regalloc: %s: vreg %d live-in to region@%d is redefined at %d",
		e.Func, e.VReg, e.Header, e.DefPos)
}

// Allocatable register pools. r0..r10 for integers (r11/r12 are spill
// scratch, r13..r15 are sp/lr/rp); f0..f29 for floats (f30/f31 scratch).
var (
	intPool   []isa.Reg
	floatPool []isa.Reg
)

func init() {
	for r := isa.R0; r <= isa.R10; r++ {
		intPool = append(intPool, r)
	}
	for i := 0; i < 30; i++ {
		floatPool = append(floatPool, isa.F(i))
	}
}

// interval is a conservative live range over linear positions.
type interval struct {
	vreg       VReg
	start, end int
	float      bool
	spill      bool
}

// Allocate runs linear scan over vf.
func Allocate(vf *VFunc, opts Options) (*Assignment, error) {
	lin, blockStart := linearize(vf)
	liveOut := liveness(vf)

	// liveAt[p] is the set live immediately before position p, in
	// ascending vreg order. Only region headers need it, so only their
	// entries are non-nil: the §4.4 checks below read nothing else.
	var liveAt [][]VReg
	if opts.Idempotent {
		liveAt = make([][]VReg, len(lin))
		for _, r := range vf.Regions {
			liveAt[r.Header] = []VReg{}
		}
	}

	// Build intervals: walk each block backward with one scratch live set
	// and touch every vreg defined or live at each position.
	iv := make([]*interval, vf.NumVRegs)
	ivs := make([]interval, vf.NumVRegs)
	touch := func(v VReg, pos int) {
		it := iv[v]
		if it == nil {
			ivs[v] = interval{vreg: v, start: pos, end: pos, float: vf.FloatReg[v]}
			iv[v] = &ivs[v]
			return
		}
		if pos < it.start {
			it.start = pos
		}
		if pos > it.end {
			it.end = pos
		}
	}
	var uses, live []VReg
	cur := newBitset(vf.NumVRegs)
	for b := range vf.Blocks {
		copy(cur, liveOut[b])
		instrs := vf.Blocks[b].Instrs
		for i := len(instrs) - 1; i >= 0; i-- {
			pos := blockStart[b] + i
			in := &instrs[i]
			if in.Rd != NoVReg {
				touch(in.Rd, pos)
				cur.remove(in.Rd)
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				cur.add(u)
			}
			// cur is now the set live before pos, uses included: anything
			// live at this position extends across it.
			live = cur.appendTo(live[:0])
			for _, v := range live {
				touch(v, pos)
			}
			if liveAt != nil && liveAt[pos] != nil {
				liveAt[pos] = append(liveAt[pos], live...)
			}
		}
	}

	// §4.4: extend every region live-in to the region's last position,
	// and verify it is not redefined inside the region.
	if opts.Idempotent {
		isLiveIn := newBitset(vf.NumVRegs)
		for _, r := range vf.Regions {
			maxPos, minPos := r.Header, r.Header
			for _, p := range r.Positions {
				if p > maxPos {
					maxPos = p
				}
				if p < minPos {
					minPos = p
				}
			}
			liveIn := liveAt[r.Header]
			for _, v := range liveIn {
				// The live-in's storage must be untouched over the WHOLE
				// region, including positions below the header when the
				// region wraps a loop back edge — re-execution may pass
				// through them before the live-in's (re-)uses.
				if iv[v].end < maxPos {
					iv[v].end = maxPos
				}
				if iv[v].start > minPos {
					iv[v].start = minPos
				}
				isLiveIn.add(v)
			}
			// The §4.2.2 guarantee: live-ins must never be redefined
			// inside their region. Loop-carried φ values can violate this
			// when region boundaries land awkwardly relative to the φ copy
			// cluster (our linear-scan allocator does not double-buffer à
			// la Fig. 7c); the violation is reported structurally so
			// codegen can repair it with an extra cut before the offending
			// definition and retry. The lowest vreg's first redefinition is
			// reported, so repairs are deterministic.
			badV, badPos := NoVReg, 0
			for _, p := range r.Positions {
				d := instrAt(vf, lin[p]).Rd
				if p == r.Header || d == NoVReg || !isLiveIn.has(d) {
					continue
				}
				if badV == NoVReg || d < badV || d == badV && p < badPos {
					badV, badPos = d, p
				}
			}
			for _, v := range liveIn {
				isLiveIn.remove(v)
			}
			if badV != NoVReg {
				return nil, &LiveInViolation{Func: vf.Name, VReg: badV, Header: r.Header, DefPos: badPos}
			}
		}
	}

	// Everything live across a call is spilled (all registers are
	// caller-saved), as are call arguments and results (so the call
	// expansion can move them without conflicting with the allocation).
	for pos, ref := range lin {
		in := instrAt(vf, ref)
		if in.Kind != KCall {
			continue
		}
		for _, it := range iv {
			if it != nil && it.start < pos && it.end > pos {
				it.spill = true
			}
		}
		for _, a := range in.Args {
			if iv[a] != nil {
				iv[a].spill = true
			}
		}
		if in.Rd != NoVReg && iv[in.Rd] != nil {
			iv[in.Rd].spill = true
		}
	}

	// Linear scan.
	var list []*interval
	for _, it := range iv {
		if it != nil {
			list = append(list, it)
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].start != list[j].start {
			return list[i].start < list[j].start
		}
		return list[i].vreg < list[j].vreg
	})

	as := &Assignment{
		RegOf:   make([]isa.Reg, vf.NumVRegs),
		Spilled: make([]bool, vf.NumVRegs),
		SlotOf:  make([]int, vf.NumVRegs),
	}
	type active struct {
		it  *interval
		reg isa.Reg
	}
	var actInt, actFloat []active
	freeInt := append([]isa.Reg{}, intPool...)
	freeFloat := append([]isa.Reg{}, floatPool...)
	nextSlot := 0

	spill := func(it *interval) {
		as.Spilled[it.vreg] = true
		as.SlotOf[it.vreg] = nextSlot
		nextSlot++
	}
	expire := func(act []active, free []isa.Reg, pos int) ([]active, []isa.Reg) {
		kept := act[:0]
		for _, a := range act {
			if a.it.end < pos {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		return kept, free
	}

	for _, it := range list {
		actInt, freeInt = expire(actInt, freeInt, it.start)
		actFloat, freeFloat = expire(actFloat, freeFloat, it.start)
		if it.spill {
			spill(it)
			continue
		}
		act, free := &actInt, &freeInt
		if it.float {
			act, free = &actFloat, &freeFloat
		}
		if len(*free) == 0 {
			// Spill the interval that ends last (Poletto & Sarkar).
			victim := it
			vi := -1
			for i, a := range *act {
				if a.it.end > victim.end {
					victim = a.it
					vi = i
				}
			}
			if vi >= 0 {
				reg := (*act)[vi].reg
				*act = append((*act)[:vi], (*act)[vi+1:]...)
				spill(victim)
				as.RegOf[it.vreg] = reg
				*act = append(*act, active{it, reg})
			} else {
				spill(it)
			}
			continue
		}
		reg := (*free)[0]
		*free = (*free)[1:]
		as.RegOf[it.vreg] = reg
		*act = append(*act, active{it, reg})
	}

	as.FrameSlots = nextSlot
	// Spill traffic estimate.
	for _, ref := range lin {
		in := instrAt(vf, ref)
		uses = uses[:0]
		uses = in.Uses(uses)
		for _, u := range uses {
			if as.Spilled[u] {
				as.SpillLoads++
			}
		}
		if in.Rd != NoVReg && as.Spilled[in.Rd] {
			as.SpillStores++
		}
	}

	// §4.4 addendum: the KRet expansion stages the return value through
	// physical r0/f0 — a write the interference model never sees as a
	// def. A region live-in occupying that register while its region
	// contains a value-returning ret would be clobbered before the region
	// commits (re-execution after a post-ret fault would then re-read the
	// staged value, e.g. as a store address). Report it like any other
	// live-in redefinition so codegen cuts before the ret and retries;
	// the ret's own region has only the return value live-in, so one cut
	// always suffices.
	if opts.Idempotent {
		for _, r := range vf.Regions {
			retPos, retV := -1, NoVReg
			for _, p := range r.Positions {
				if in := instrAt(vf, lin[p]); in.Kind == KRet && in.Rs1 != NoVReg {
					if retPos < 0 || p < retPos {
						retPos, retV = p, in.Rs1
					}
				}
			}
			if retPos < 0 {
				continue
			}
			retReg := isa.R0
			if vf.FloatReg[retV] {
				retReg = isa.F(0)
			}
			for _, v := range liveAt[r.Header] {
				if v == retV || iv[v] == nil || as.Spilled[v] || as.RegOf[v] != retReg {
					continue
				}
				return nil, &LiveInViolation{Func: vf.Name, VReg: v, Header: r.Header, DefPos: retPos}
			}
		}
	}
	return as, nil
}

// instrRef locates an instruction by block and index.
type instrRef struct{ b, i int }

func instrAt(vf *VFunc, r instrRef) *VInstr { return &vf.Blocks[r.b].Instrs[r.i] }

// linearize flattens the CFG into a position-indexed list and records
// each block's starting position.
func linearize(vf *VFunc) ([]instrRef, []int) {
	n := 0
	for b := range vf.Blocks {
		n += len(vf.Blocks[b].Instrs)
	}
	lin := make([]instrRef, 0, n)
	blockStart := make([]int, len(vf.Blocks))
	for b := range vf.Blocks {
		blockStart[b] = len(lin)
		for i := range vf.Blocks[b].Instrs {
			lin = append(lin, instrRef{b, i})
		}
	}
	return lin, blockStart
}

// bitset is a set of vregs, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(v VReg) bool { return s[v>>6]&(1<<(v&63)) != 0 }
func (s bitset) add(v VReg)      { s[v>>6] |= 1 << (v & 63) }
func (s bitset) remove(v VReg)   { s[v>>6] &^= 1 << (v & 63) }

// appendTo appends the members of s to dst in ascending order.
func (s bitset) appendTo(dst []VReg) []VReg {
	for w, x := range s {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, VReg(w<<6+bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// liveness returns the set of vregs live out of each block.
func liveness(vf *VFunc) []bitset {
	n, words := len(vf.Blocks), (vf.NumVRegs+63)/64
	// One backing array holds every block's live-in, live-out, use and
	// def set.
	all := make([]uint64, 4*n*words)
	sets := make([]bitset, 4*n)
	for i := range sets {
		sets[i] = all[i*words : (i+1)*words]
	}
	liveIn, liveOut, use, def := sets[:n], sets[n:2*n], sets[2*n:3*n], sets[3*n:]
	var buf []VReg
	for b := range vf.Blocks {
		for i := range vf.Blocks[b].Instrs {
			in := &vf.Blocks[b].Instrs[i]
			buf = in.Uses(buf[:0])
			for _, s := range buf {
				if !def[b].has(s) {
					use[b].add(s)
				}
			}
			if in.Rd != NoVReg {
				def[b].add(in.Rd)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			out := liveOut[b]
			for _, s := range vf.Blocks[b].Succs {
				for w, x := range liveIn[s] {
					out[w] |= x
				}
			}
			in, u, d := liveIn[b], use[b], def[b]
			for w := range in {
				if x := u[w] | out[w]&^d[w]; x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	return liveOut
}
