package verify

import (
	"fmt"

	"idemproc/internal/isa"
)

// Space classifies an abstract location.
type Space uint8

const (
	// SpaceReg: a physical register.
	SpaceReg Space = iota
	// SpaceStack: a stack word, (Base, Off) relative to a stack base
	// (base 0 is the region-entry SP). Obj carries the provenance
	// anchor: -1 for direct frame addressing (spill slots, saved LR),
	// an alloca's frame offset for pointers derived from it, -2 for an
	// unanchored stack pointer (aliases the whole frame).
	SpaceStack
	// SpaceAbs: an absolute word address (globals). Inexact locations
	// are anchored to the containing global's base address in Obj.
	SpaceAbs
	// SpaceSym: an offset from an opaque live-in base (Base is the
	// symbol id).
	SpaceSym
	// SpaceAny: an unknown address; may alias anything except the stack
	// (mirroring the IR rule that unknown pointers do not reach
	// non-escaped allocas — and the frame is invisible to the IR).
	SpaceAny
)

// Loc is an abstract machine location.
type Loc struct {
	Space Space
	Reg   isa.Reg
	Base  int64
	Obj   int64
	Off   int64
	Exact bool
}

func (l Loc) String() string {
	switch l.Space {
	case SpaceReg:
		return l.Reg.String()
	case SpaceStack:
		if l.Exact {
			return fmt.Sprintf("stack(b%d%+d)", l.Base, l.Off)
		}
		return fmt.Sprintf("stack(b%d,obj%d+?)", l.Base, l.Obj)
	case SpaceAbs:
		if l.Exact {
			return fmt.Sprintf("mem[%d]", l.Off)
		}
		return fmt.Sprintf("mem[%d+?]", l.Obj)
	case SpaceSym:
		if l.Exact {
			return fmt.Sprintf("sym%d%+d", l.Base, l.Off)
		}
		return fmt.Sprintf("sym%d+?", l.Base)
	}
	return "mem[?]"
}

// vkind is the abstract value kind.
type vkind uint8

const (
	vUnknown vkind = iota
	vConst
	vStack
	vSym
)

// val is an abstract register or slot value. rigid marks values that are
// fixed for the whole dynamic execution of a region (region-entry live-ins
// and constants): only locations addressed through rigid values can
// must-kill an exposure. The small fields come last so a val packs into
// 32 bytes: every step copies a state's NumRegs of them.
type val struct {
	base  int64
	obj   int64
	off   int64
	kind  vkind
	exact bool
	rigid bool
}

func vconst(c int64) val { return val{kind: vConst, off: c, exact: true, rigid: true} }

// addImm adds a known constant to a value, preserving provenance.
func addImm(v val, c int64) val {
	if v.exact {
		switch v.kind {
		case vConst, vStack, vSym:
			v.off += c
		}
	}
	return v
}

// inexactOf drops offset knowledge but keeps the provenance anchor
// (mirrors the IR resolving base+variable-index to the base's object
// with an unknown offset).
func inexactOf(v val) val {
	switch v.kind {
	case vStack:
		return val{kind: vStack, base: v.base, obj: v.obj, exact: false}
	case vSym:
		return val{kind: vSym, base: v.base, obj: v.obj, exact: false}
	case vConst:
		if !v.exact {
			return v
		}
	}
	return val{}
}

func ptrLike(v val) bool {
	return v.kind == vStack || v.kind == vSym || (v.kind == vConst && !v.exact)
}

// opaque is the stable symbol for "the result computed at pc": exact so
// derived offsets separate, but not rigid (it may differ across loop
// iterations, so it can never witness a must-kill).
func (vf *verifier) opaque(pc int) val {
	if vf.pcID[pc] == 0 {
		vf.pcID[pc] = vf.fresh()
	}
	return val{kind: vSym, base: vf.pcID[pc], exact: true}
}

// addVals models ADD. A known constant acts as the offset side; a global
// base plus a variable index keeps the global's object identity.
func (vf *verifier) addVals(a, b val, pc int) val {
	if b.kind == vConst && b.exact {
		a, b = b, a
	}
	if a.kind == vConst && a.exact {
		if b.kind == vConst && b.exact {
			return vconst(a.off + b.off)
		}
		if b.kind == vStack {
			return addImm(b, a.off)
		}
		// A constant inside a global's extent added to a computed value is
		// base-plus-index addressing: keep the global's object identity
		// (mirrors the IR resolving Add(global, idx) to the global with an
		// unknown offset).
		if g, ok := vf.anchor(a.off); ok {
			return val{kind: vConst, obj: g, exact: false}
		}
		if ptrLike(b) {
			return addImm(b, a.off)
		}
		return val{}
	}
	ap, bp := ptrLike(a), ptrLike(b)
	if ap && !bp {
		return inexactOf(a)
	}
	if bp && !ap {
		return inexactOf(b)
	}
	return vf.opaque(pc)
}

func (vf *verifier) subVals(a, b val, pc int) val {
	if b.kind == vConst && b.exact {
		if a.kind == vConst && a.exact {
			return vconst(a.off - b.off)
		}
		return addImm(a, -b.off)
	}
	if ptrLike(a) && !ptrLike(b) {
		return inexactOf(a)
	}
	return vf.opaque(pc)
}

// locOf maps (address value, immediate) to an abstract location, plus
// whether the address is rigid (eligible to witness must-kills).
func locOf(av val, imm int64) (Loc, bool) {
	switch av.kind {
	case vConst:
		if av.exact {
			return Loc{Space: SpaceAbs, Off: av.off + imm, Exact: true}, true
		}
		return Loc{Space: SpaceAbs, Obj: av.obj}, false
	case vStack:
		if av.exact {
			return Loc{Space: SpaceStack, Base: av.base, Obj: av.obj, Off: av.off + imm, Exact: true}, av.rigid
		}
		return Loc{Space: SpaceStack, Base: av.base, Obj: av.obj}, false
	case vSym:
		if av.exact {
			return Loc{Space: SpaceSym, Base: av.base, Obj: av.obj, Off: av.off + imm, Exact: true}, av.rigid
		}
		return Loc{Space: SpaceSym, Base: av.base, Obj: av.obj}, false
	}
	return Loc{Space: SpaceAny}, false
}

// memKey identifies an exact location for the must-write (kill) set and
// the slot-content map. Stack keys deliberately drop the provenance
// anchor: exact locations are compared by address identity alone.
type memKey struct {
	space Space
	base  int64
	off   int64
}

func keyOf(l Loc) memKey { return memKey{space: l.Space, base: l.Base, off: l.Off} }

// mayAlias decides whether two abstract memory locations can name the
// same word. The rules mirror internal/alias: distinct stack bases and
// distinct provenance objects never overlap (stack discipline), exact
// addresses compare numerically, opaque bases may overlap anything
// outside the stack.
func (vf *verifier) mayAlias(a, b Loc) bool {
	if a.Space == SpaceAny {
		return b.Space != SpaceStack
	}
	if b.Space == SpaceAny {
		return a.Space != SpaceStack
	}
	if (a.Space == SpaceStack) != (b.Space == SpaceStack) {
		return false
	}
	switch a.Space {
	case SpaceStack:
		if a.Base != b.Base {
			return false
		}
		if a.Exact && b.Exact {
			return a.Off == b.Off
		}
		if (!a.Exact && (a.Obj == -1 || a.Obj == -2)) || (!b.Exact && (b.Obj == -1 || b.Obj == -2)) {
			return true
		}
		if a.Obj == -2 || b.Obj == -2 {
			return true
		}
		return a.Obj == b.Obj
	case SpaceAbs:
		if b.Space == SpaceAbs {
			if a.Exact && b.Exact {
				return a.Off == b.Off
			}
			if !a.Exact && !b.Exact {
				return a.Obj == b.Obj
			}
			ex, in := a, b
			if !a.Exact {
				ex, in = b, a
			}
			g, ok := vf.anchor(ex.Off)
			return ok && g == in.Obj
		}
		// abs vs sym: a live-in pointer may address a global, unless its
		// tracked provenance pins it to a different object.
		return !vf.distinctObj(b, a)
	case SpaceSym:
		if b.Space == SpaceSym {
			if a.Base == b.Base && a.Exact && b.Exact {
				return a.Off == b.Off
			}
			if a.Obj != 0 && b.Obj != 0 && a.Obj != b.Obj {
				return false
			}
			return true
		}
		if b.Space == SpaceAbs {
			return !vf.distinctObj(a, b)
		}
		return true
	}
	return true
}

// distinctObj reports that a provenance-tagged symbolic location and an
// absolute location provably name different global objects. Trusts the
// same object-extent reasoning as the IR: a tagged pointer stays inside
// the global it was derived from.
func (vf *verifier) distinctObj(sym, abs Loc) bool {
	if sym.Obj == 0 {
		return false
	}
	if abs.Exact {
		g, ok := vf.anchor(abs.Off)
		return !ok || g != sym.Obj
	}
	return abs.Obj != 0 && abs.Obj != sym.Obj
}

// state is the per-program-point dataflow fact for one region: abstract
// register and slot values (for provenance tracking through spills), the
// exposed-read sets (may, union at joins) and the must-written kill sets
// (intersection at joins). The memory sets average a few entries and
// reach a few dozen at most on the workload matrix, so they are slices
// searched linearly, kept in insertion order.
type state struct {
	regs  [isa.NumRegs]val
	eregs uint64 // registers with an exposed read, one bit each
	wregs uint64 // registers written on every path
	mem   []memEntry
	emem  []Loc
	wmem  []memKey
}

// memEntry is one entry of a state's slot-content map.
type memEntry struct {
	k memKey
	v val
}

// copyFrom makes s a copy of src, reusing s's storage.
func (s *state) copyFrom(src *state) {
	s.regs, s.eregs, s.wregs = src.regs, src.eregs, src.wregs
	s.mem = append(s.mem[:0], src.mem...)
	s.emem = append(s.emem[:0], src.emem...)
	s.wmem = append(s.wmem[:0], src.wmem...)
}

func (s *state) slot(k memKey) (val, bool) {
	for _, e := range s.mem {
		if e.k == k {
			return e.v, true
		}
	}
	return val{}, false
}

func (s *state) exposed(l Loc) bool {
	for _, e := range s.emem {
		if e == l {
			return true
		}
	}
	return false
}

func (s *state) written(k memKey) bool {
	for _, w := range s.wmem {
		if w == k {
			return true
		}
	}
	return false
}

// mergeFrom joins src into dst at join point pc, reporting change. dst
// and src may be the same state (a branch whose two successors coincide);
// nothing changes then.
func (dst *state) mergeFrom(src *state, pc int, vf *verifier) bool {
	changed := src.eregs&^dst.eregs != 0 || dst.wregs&^src.wregs != 0
	dst.eregs |= src.eregs
	dst.wregs &= src.wregs
	for i := range dst.regs {
		if dst.regs[i] != src.regs[i] {
			j := vf.joinVal(dst.regs[i], src.regs[i], pc, int64(i))
			if j != dst.regs[i] {
				dst.regs[i] = j
				changed = true
			}
		}
	}
	for _, l := range src.emem {
		if !dst.exposed(l) {
			dst.emem = append(dst.emem, l)
			changed = true
		}
	}
	wmem := dst.wmem[:0]
	for _, k := range dst.wmem {
		if src.written(k) {
			wmem = append(wmem, k)
		} else {
			changed = true
		}
	}
	dst.wmem = wmem
	mem := dst.mem[:0]
	for _, e := range dst.mem {
		sv, ok := src.slot(e.k)
		if !ok {
			changed = true
			continue
		}
		if sv != e.v {
			j := vf.joinVal(e.v, sv, pc, vf.memSlotID(e.k))
			if j != e.v {
				e.v = j
				changed = true
			}
		}
		mem = append(mem, e)
	}
	dst.mem = mem
	return changed
}

// memSlotID gives a stable join-slot index for a memory key (register
// slots use 0..NumRegs-1).
func (vf *verifier) memSlotID(k memKey) int64 {
	id, ok := vf.memSlot[k]
	if !ok {
		id = int64(isa.NumRegs) + int64(len(vf.memSlot))
		vf.memSlot[k] = id
	}
	return id
}

// joinVal degrades two differing values. Memoized symbol allocation
// (joinID keyed by join point and slot) makes the join idempotent, so
// the fixpoint converges: a second visit reproduces the same symbol.
func (vf *verifier) joinVal(a, b val, pc int, slot int64) val {
	if a == b {
		return a
	}
	switch {
	case a.kind == vConst && b.kind == vConst:
		if a.exact && b.exact {
			g1, ok1 := vf.anchor(a.off)
			g2, ok2 := vf.anchor(b.off)
			if ok1 && ok2 && g1 == g2 {
				return val{kind: vConst, obj: g1, exact: false}
			}
			return val{}
		}
		if !a.exact && !b.exact && a.obj == b.obj {
			return val{kind: vConst, obj: a.obj, exact: false}
		}
		ex, in := a, b
		if !a.exact {
			ex, in = b, a
		}
		if ex.exact && !in.exact {
			if g, ok := vf.anchor(ex.off); ok && g == in.obj {
				return in
			}
		}
		return val{}
	case a.kind == vStack && b.kind == vStack:
		if a.obj == -1 && b.obj == -1 {
			// Two frame pointers meeting (recursion): collapse onto a
			// fresh stack base — frames stay disjoint by discipline, and
			// per-depth write-before-read keeps must-kills truthful.
			id := vf.joinStackBase(pc, slot)
			return val{kind: vStack, base: id, obj: -1, exact: true, rigid: true}
		}
		if a.base == b.base && a.obj == b.obj {
			return val{kind: vStack, base: a.base, obj: a.obj, exact: false}
		}
		return val{}
	case a.kind == vSym && b.kind == vSym && a.base == b.base:
		obj := a.obj
		if b.obj != obj {
			obj = 0
		}
		return val{kind: vSym, base: a.base, obj: obj, exact: false}
	}
	return val{}
}

func (vf *verifier) joinStackBase(pc int, slot int64) int64 {
	k := joinKey{pc, slot}
	id, ok := vf.joinID[k]
	if !ok {
		id = vf.fresh()
		vf.joinID[k] = id
	}
	return id
}

// exemptReg reports registers outside the criterion: SP and LR are
// snapshotted at every MARK and restored on recovery, RP is the mark.
func exemptReg(r isa.Reg) bool { return r.Reserved() }

func (vf *verifier) readReg(st *state, r isa.Reg) val {
	if !exemptReg(r) && st.wregs&(1<<r) == 0 {
		st.eregs |= 1 << r
	}
	return st.regs[r]
}

func (vf *verifier) writeReg(st *state, r isa.Reg, v val, pc, region int) {
	if !exemptReg(r) && st.eregs&(1<<r) != 0 {
		vf.violate(region, pc, Loc{Space: SpaceReg, Reg: r}, KindClobberReg)
	}
	st.regs[r] = v
	st.wregs |= 1 << r
}

// memRead records the exposure of a load unless a must-write to the same
// exact, rigidly-addressed word precedes it in-region (a flow
// dependence: re-execution reads the value the region itself wrote).
func (vf *verifier) memRead(st *state, loc Loc, rigid bool) {
	if loc.Exact && rigid && st.written(keyOf(loc)) {
		return
	}
	if !st.exposed(loc) {
		st.emem = append(st.emem, loc)
	}
}

// memWrite flags the store if it may alias any exposed read, then
// updates the kill set and the slot-content map.
func (vf *verifier) memWrite(st *state, loc Loc, v val, rigid bool, pc, region int) {
	for _, e := range st.emem {
		if vf.mayAlias(e, loc) {
			vf.violate(region, pc, loc, KindClobberMem)
			break
		}
	}
	k := keyOf(loc)
	if loc.Exact && rigid && !st.written(k) {
		st.wmem = append(st.wmem, k)
	}
	if loc.Space == SpaceStack && loc.Exact {
		// Exact slots are address identities: only the written word changes.
		for i := range st.mem {
			if st.mem[i].k == k {
				st.mem[i].v = v
				return
			}
		}
		st.mem = append(st.mem, memEntry{k, v})
		return
	}
	if loc.Space == SpaceStack {
		// Imprecise stack store: drop every same-base slot value it might
		// overwrite (non-stack stores cannot reach the frame).
		mem := st.mem[:0]
		for _, e := range st.mem {
			if e.k.base != loc.Base {
				mem = append(mem, e)
			}
		}
		st.mem = mem
	}
}

// slotVal is the stable symbol for "the region-entry content of slot k":
// rigid, because an in-region clobber of the slot would itself be
// flagged.
func (vf *verifier) slotVal(k memKey) val {
	id, ok := vf.slotID[k]
	if !ok {
		id = vf.fresh()
		vf.slotID[k] = id
	}
	return val{kind: vSym, base: id, exact: true, rigid: true}
}

// step executes the transfer function for pc on st (already a private
// copy) and returns the successor pcs, valid until the next step.
func (vf *verifier) step(st *state, pc, region int) []int {
	in := vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return vf.to(pc + 1) // protected instrumentation: no architectural effect
	}
	switch in.Op {
	case isa.NOP, isa.CHECK, isa.MAJ:
		return vf.to(pc + 1)
	case isa.MOVI:
		vf.writeReg(st, in.Rd, vconst(in.Imm), pc, region)
	case isa.FMOVI:
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.MOV, isa.FMOV:
		v := vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, v, pc, region)
	case isa.ADD:
		a, b := vf.readReg(st, in.Rs1), vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.addVals(a, b, pc), pc, region)
	case isa.SUB:
		a, b := vf.readReg(st, in.Rs1), vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.subVals(a, b, pc), pc, region)
	case isa.MUL, isa.DIV, isa.REM, isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.ASR,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.ADDI:
		v := vf.readReg(st, in.Rs1)
		res := addImm(v, in.Imm)
		if v.kind == vStack && v.obj == -1 && v.exact && in.Rd != isa.SP {
			// A frame address materialized into a pointer register is an
			// alloca base: give it its own provenance object.
			res.obj = res.off
		}
		vf.writeReg(st, in.Rd, res, pc, region)
	case isa.NEG, isa.MVN, isa.FTOI:
		vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.ITOF, isa.FNEG:
		vf.readReg(st, in.Rs1)
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, val{}, pc, region)
	case isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
		vf.readReg(st, in.Rs1)
		vf.readReg(st, in.Rs2)
		vf.writeReg(st, in.Rd, vf.opaque(pc), pc, region)
	case isa.LDR, isa.FLDR:
		av := vf.readReg(st, in.Rs1)
		loc, rigid := locOf(av, in.Imm)
		vf.memRead(st, loc, rigid)
		res := val{}
		if in.Op == isa.LDR && loc.Space == SpaceStack && loc.Exact {
			k := keyOf(loc)
			if v, ok := st.slot(k); ok {
				res = v
			} else if st.written(k) {
				res = vf.opaque(pc) // overwritten then forgotten: not entry content
			} else {
				res = vf.slotVal(k)
				// Upgrade the opaque entry symbol with whatever the
				// whole-program pre-pass proved about this slot's content at
				// the region boundary: spilled pointers keep their global
				// anchor, spilled constants their value. Base 0 is the
				// region-entry SP, so the absolute slot address is known
				// whenever SP's is.
				if k.base == 0 {
					if ps := vf.entryProv; ps.reached && ps.reg(isa.SP).ck {
						f := ps.mem.load(ps.reg(isa.SP).cv + k.off)
						if f.ck {
							res = vconst(f.cv)
						} else {
							res.obj = f.obj
						}
					}
				}
				st.mem = append(st.mem, memEntry{k, res})
			}
		}
		vf.writeReg(st, in.Rd, res, pc, region)
	case isa.STR, isa.FSTR:
		av := vf.readReg(st, in.Rs1)
		data := vf.readReg(st, in.Rs2)
		loc, rigid := locOf(av, in.Imm)
		vf.memWrite(st, loc, data, rigid, pc, region)
	case isa.B:
		return vf.to(int(in.Imm))
	case isa.CBZ, isa.CBNZ:
		vf.readReg(st, in.Rs1)
		return vf.to(pc+1, int(in.Imm))
	case isa.CALL:
		st.regs[isa.LR] = vconst(int64(pc + 1))
		st.wregs |= 1 << isa.LR
		return vf.to(int(in.Imm))
	case isa.RET:
		lr := st.regs[isa.LR]
		if lr.kind == vConst && lr.exact {
			return vf.to(int(lr.off))
		}
		// Opaque return address (region entered mid-callee): conservatively
		// continue at every return site of the containing function.
		return vf.returnSites(pc)
	case isa.HALT:
		return nil
	case isa.MARK:
		// Only reached for Shadow/Meta-free marks at pc != region entry;
		// the driver treats these as boundaries before stepping, so this
		// is the region's own entry revisited: commit, path ends.
		return nil
	}
	return vf.to(pc + 1)
}
