package verify

import (
	"math/bits"

	"idemproc/internal/isa"
)

// The pre-pass's dirty masks and the region pass's exposure and kill sets
// are uint64 bitsets with one bit per register: this fails to compile if
// the register file outgrows them.
var _ [64 - isa.NumRegs]struct{}

// provReg is the whole-program pre-pass lattice for one value: which
// global object it must point into when used as an address (obj, 0 =
// unknown), and — independently — whether it is a known compile-time
// constant (ck/cv). Both facts are path-invariants joined over every way
// execution can reach a pc; mismatches degrade to unknown. A fact at a
// pc can degrade only once, but each degradation flows on to every pc
// downstream, so the FIFO worklist steps each pc about five times on the
// workload matrix.
type provReg struct {
	obj int64 // global object anchor (0 = unknown)
	ck  bool  // constant value known on every path
	cv  int64
}

// meet degrades the facts of f that out does not share to unknown.
func (f provReg) meet(out provReg) provReg {
	if f.obj != out.obj {
		f.obj = 0
	}
	if f.ck && (!out.ck || f.cv != out.cv) {
		f.ck, f.cv = false, 0
	}
	return f
}

// provState is the pre-pass dataflow state at one pc: a fact per
// register, plus facts about absolutely-addressed memory words. SP is
// itself tracked as a constant (the startup stub materializes it and
// frames adjust it by immediates), so spill slots have known absolute
// addresses and survive the pass — which is what lets a pointer spilled
// before a MARK and reloaded after it keep its provenance.
//
// The integer registers' facts are stored inline. The float registers'
// facts live in an array allocated with the first nonzero one: compiled
// code never gives a float register a fact (only malformed artifacts
// do), so a pc's state takes 432 bytes. Read and write facts through reg
// and setReg. dirty marks the registers whose fact changed since the pc
// was last stepped, and memDirty the words; reached marks the pcs the
// pass has visited.
type provState struct {
	ints     [isa.NumIntRegs]provReg
	floats   *[isa.NumFloatRegs]provReg
	mem      provWords
	dirty    uint64
	memDirty bool
	reached  bool
}

// allRegs is a dirty mask with every register set.
const allRegs = 1<<isa.NumRegs - 1

// intRegs is a mask of the integer registers.
const intRegs = 1<<isa.NumIntRegs - 1

// noReg is what provStep returns for an instruction that writes no
// register.
const noReg isa.Reg = isa.NumRegs

// reg returns register r's fact.
func (s *provState) reg(r isa.Reg) provReg {
	if r < isa.NumIntRegs {
		return s.ints[r]
	}
	if s.floats == nil {
		return provReg{}
	}
	return s.floats[r-isa.NumIntRegs]
}

// setReg sets register r's fact.
func (s *provState) setReg(r isa.Reg, f provReg) {
	if r < isa.NumIntRegs {
		s.ints[r] = f
		return
	}
	if s.floats == nil {
		if f == (provReg{}) {
			return
		}
		s.floats = new([isa.NumFloatRegs]provReg)
	}
	s.floats[r-isa.NumIntRegs] = f
}

// reach gives an unreached pc the state leaving src: src's facts, with
// rd (unless noReg) holding f and words as the memory. Every fact is
// dirty, because no successor has seen any of them.
func (s *provState) reach(src *provState, rd isa.Reg, f provReg, words provWords) {
	s.ints = src.ints
	if src.floats != nil {
		fl := *src.floats
		s.floats = &fl
	}
	if rd != noReg {
		s.setReg(rd, f)
	}
	s.mem = append(provWords(nil), words...)
	s.dirty, s.memDirty, s.reached = allRegs, true, true
}

// meetRegs joins into s the registers in mask of the state leaving src,
// where rd holds f and every other register src's own fact. It marks
// the facts it changes dirty and reports change.
func (s *provState) meetRegs(src *provState, mask uint64, rd isa.Reg, f provReg) bool {
	if s.floats == nil {
		mask &= intRegs // a zero fact meets anything to zero
	}
	changed := false
	for ; mask != 0; mask &= mask - 1 {
		r := isa.Reg(bits.TrailingZeros64(mask))
		out := f
		if r != rd {
			out = src.reg(r)
		}
		cur := s.reg(r)
		if m := cur.meet(out); m != cur {
			s.setReg(r, m)
			s.dirty |= 1 << r
			changed = true
		}
	}
	return changed
}

type provWord struct {
	addr int64
	f    provReg
}

// provWords holds the words with a nonzero fact, sorted by address.
type provWords []provWord

// find returns the index of the first word at or above addr.
func (w provWords) find(addr int64) int {
	i := 0
	for i < len(w) && w[i].addr < addr {
		i++
	}
	return i
}

// load returns the fact about the word at addr (zero when none).
func (w provWords) load(addr int64) provReg {
	if i := w.find(addr); i < len(w) && w[i].addr == addr {
		return w[i].f
	}
	return provReg{}
}

// store records f for the word at addr; a zero fact removes the word.
func (w *provWords) store(addr int64, f provReg) {
	m := *w
	i := m.find(addr)
	switch {
	case i < len(m) && m[i].addr == addr && f == (provReg{}):
		m = append(m[:i], m[i+1:]...)
	case i < len(m) && m[i].addr == addr:
		m[i].f = f
	case f != (provReg{}):
		m = append(m, provWord{})
		copy(m[i+1:], m[i:])
		m[i] = provWord{addr, f}
	}
	*w = m
}

// dropWords removes every word whose address drop reports.
func (w *provWords) dropWords(drop func(addr int64) bool) {
	m := (*w)[:0]
	for _, x := range *w {
		if !drop(x.addr) {
			m = append(m, x)
		}
	}
	*w = m
}

// meet joins out into w, reporting change: a word must be known on both
// sides to survive, and facts that differ degrade to unknown. Both lists
// are sorted, so one pass over each suffices. out may be w itself (a pc
// that is its own successor); nothing changes then.
func (w *provWords) meet(out provWords) bool {
	changed := false
	m := (*w)[:0]
	j := 0
	for _, x := range *w {
		for j < len(out) && out[j].addr < x.addr {
			j++
		}
		var of provReg
		if j < len(out) && out[j].addr == x.addr {
			of = out[j].f
		}
		f := x.f.meet(of)
		if f != x.f {
			changed = true
		}
		if f != (provReg{}) {
			m = append(m, provWord{x.addr, f})
		}
	}
	*w = m
	return changed
}

// provPass computes per-pc provenance, flowing straight through MARKs.
// Region boundaries erase value provenance from the per-region analysis
// (live-in registers and stack slots become opaque symbols), which loses
// facts the machine itself preserves:
//
//   - a pointer into global A computed in one region and dereferenced in
//     the next would may-alias every other global (obj recovers this);
//   - a constant materialized just before a MARK — common when
//     MaxRegionSize splits a computation mid-expression — becomes opaque,
//     so exact address offsets turn into may-alias-everything symbols
//     (ck/cv recovers this);
//   - either kind of value spilled before the MARK and reloaded after it
//     (mem recovers this, because spill addresses are compile-time
//     constants once SP is).
//
// The pass inherits the IR's object-extent reasoning: a constant inside a
// global's extent anchors to that global, and pointer+index arithmetic
// keeps the pointer side's anchor (offsets are trusted to stay in bounds,
// exactly as internal/alias trusts IR addressing to stay inside the
// object it names). SP-relative stores with an unknown SP are trusted to
// stay inside the executing function's own frame — the same frame
// discipline the per-region analysis leans on — so they invalidate only
// stack-range facts, not global ones.
//
// A visit merges into each successor only what changed since the pc was
// last stepped: its dirty registers, the register it writes, and its
// words when they changed or when it is a store whose operands' facts
// did. Nothing is copied except a store's words. This computes exactly
// what merging the whole stepped state would, with the same pushes in
// the same order, because:
//
//  1. once a pc is reached, merging into it only degrades facts, one
//     fact at a time, with a meet that is idempotent, commutative and
//     associative;
//  2. provSuccs depends only on the instruction, so every visit merges
//     into the same successors, and the first visit reaches them all;
//  3. so a successor has already absorbed every fact of the state
//     leaving pc that is unchanged since pc's last visit, and merging it
//     again would change nothing and report no change.
//
// The transfer functions themselves are not monotone; the pass still
// keeps a state at every pc. The order of words does not matter to
// load, store, dropWords or meet.
func (vf *verifier) provPass() []provState {
	instrs := vf.p.Instrs
	prov := make([]provState, len(instrs))
	entry := vf.p.Entry
	prov[entry] = provState{dirty: allRegs, memDirty: true, reached: true}
	wl := append(vf.wl[:0], entry)
	vf.inWL[entry] = true
	for head := 0; head < len(wl); head++ {
		pc := wl[head]
		vf.inWL[pc] = false
		st := &prov[pc]
		mask, memDirty := st.dirty, st.memDirty
		st.dirty, st.memDirty = 0, false
		rd, f := vf.provStep(st, pc)
		if rd != noReg {
			mask |= 1 << rd
		}
		words := st.mem
		if in := instrs[pc]; isProvStore(in) && (memDirty || mask&(1<<in.Rs1|1<<in.Rs2) != 0) {
			words, memDirty = vf.provStore(st, in), true
		}
		for _, s := range vf.provSuccs(pc) {
			if s < 0 || s >= len(instrs) {
				continue
			}
			cur := &prov[s]
			changed := true
			if cur.reached {
				changed = cur.meetRegs(st, mask, rd, f)
				if memDirty && cur.mem.meet(words) {
					cur.memDirty = true
					changed = true
				}
			} else {
				cur.reach(st, rd, f, words)
			}
			if changed && !vf.inWL[s] {
				wl = append(wl, s)
				vf.inWL[s] = true
			}
		}
	}
	vf.wl = wl
	return prov
}

// provStep is the transfer function for registers: it returns the
// register the instruction at pc writes (noReg for none) and that
// register's fact, tracking global anchors and constants through moves,
// arithmetic and constant-addressed memory and dropping them everywhere
// else. st is the state on entry to pc.
func (vf *verifier) provStep(st *provState, pc int) (isa.Reg, provReg) {
	in := vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return noReg, provReg{}
	}
	switch in.Op {
	case isa.MOVI:
		g, _ := vf.anchor(in.Imm)
		return in.Rd, provReg{obj: g, ck: true, cv: in.Imm}
	case isa.MOV, isa.FMOV:
		return in.Rd, st.reg(in.Rs1)
	case isa.ADDI:
		a := st.reg(in.Rs1)
		out := provReg{obj: a.obj}
		if a.ck {
			out.ck, out.cv = true, a.cv+in.Imm
			out.obj, _ = vf.anchor(out.cv)
		}
		return in.Rd, out
	case isa.ADD:
		// Constant operands win the anchor, mirroring addVals' const-anchor
		// priority: `base + index` anchors to the global the constant base
		// names, and the index side's tag — which may be a scalar that
		// merely passed through a small constant — is ignored. Only when
		// neither side is a known constant do the object tags join.
		a, b := st.reg(in.Rs1), st.reg(in.Rs2)
		var out provReg
		switch {
		case a.ck && b.ck:
			out.ck, out.cv = true, a.cv+b.cv
			out.obj, _ = vf.anchor(out.cv)
		case a.ck:
			out.obj, _ = vf.anchor(a.cv)
		case b.ck:
			out.obj, _ = vf.anchor(b.cv)
		case a.obj == b.obj:
			out.obj = a.obj
		case b.obj == 0:
			out.obj = a.obj
		case a.obj == 0:
			out.obj = b.obj
		}
		return in.Rd, out
	case isa.SUB:
		a, b := st.reg(in.Rs1), st.reg(in.Rs2)
		var out provReg
		switch {
		case a.ck && b.ck:
			out.ck, out.cv = true, a.cv-b.cv
			out.obj, _ = vf.anchor(out.cv)
		case b.ck || b.obj == 0:
			// Pointer minus a scalar stays inside the pointed-to object.
			out.obj = a.obj
		}
		return in.Rd, out
	case isa.MUL:
		a, b := st.reg(in.Rs1), st.reg(in.Rs2)
		var out provReg
		if a.ck && b.ck {
			out.ck, out.cv = true, a.cv*b.cv
			out.obj, _ = vf.anchor(out.cv)
		}
		return in.Rd, out
	case isa.LDR:
		a := st.reg(in.Rs1)
		var out provReg
		if a.ck {
			out = st.mem.load(a.cv + in.Imm)
		}
		return in.Rd, out
	case isa.CALL:
		return isa.LR, provReg{}
	case isa.FLDR, isa.FMOVI, isa.DIV, isa.REM,
		isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.ASR,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE,
		isa.NEG, isa.MVN, isa.FTOI, isa.ITOF, isa.FNEG,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV,
		isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
		// Every other producing op yields an untracked value.
		return in.Rd, provReg{}
	}
	return noReg, provReg{}
}

// isProvStore reports whether in is a store the pre-pass models.
func isProvStore(in isa.Instr) bool {
	return (in.Op == isa.STR || in.Op == isa.FSTR) && in.Shadow == 0 && !in.Meta
}

// provStore is the transfer function for the words at a store: it
// returns the words leaving it, built in the verifier's scratch from the
// state st on entry.
func (vf *verifier) provStore(st *provState, in isa.Instr) provWords {
	out := append(vf.provOut[:0], st.mem...)
	a := st.reg(in.Rs1)
	switch {
	case a.ck:
		var v provReg
		if in.Op == isa.STR {
			v = st.reg(in.Rs2)
		}
		out.store(a.cv+in.Imm, v)
	case in.Rs1 == isa.SP:
		// Unknown SP (function called from several stack depths): the
		// store lands somewhere in the current frame, so only facts in
		// the stack range are at risk.
		out.dropWords(func(addr int64) bool { return addr >= vf.p.GlobalEnd })
	case a.obj != 0:
		// Store somewhere inside one global: facts about other objects
		// and the stack survive.
		out.dropWords(func(addr int64) bool { g, _ := vf.anchor(addr); return g == a.obj })
	default:
		out = out[:0]
	}
	vf.provOut = out
	return out
}

// provSuccs mirrors the machine CFG without LR tracking: RET flows to
// every return site of the containing function.
func (vf *verifier) provSuccs(pc int) []int {
	in := vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return vf.to(pc + 1)
	}
	switch in.Op {
	case isa.B, isa.CALL:
		return vf.to(int(in.Imm))
	case isa.CBZ, isa.CBNZ:
		return vf.to(pc+1, int(in.Imm))
	case isa.RET:
		return vf.returnSites(pc)
	case isa.HALT:
		return nil
	}
	return vf.to(pc + 1)
}
