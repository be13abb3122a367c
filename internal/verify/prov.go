package verify

import "idemproc/internal/isa"

// The region pass's exposure and kill sets are uint64 bitsets with one
// bit per register: this fails to compile if the register file outgrows
// them.
var _ [64 - isa.NumRegs]struct{}

// provReg is the whole-program pre-pass lattice for one value: which
// global object it must point into when used as an address (obj, 0 =
// unknown), and — independently — whether it is a known compile-time
// constant (ck/cv). Both facts are path-invariants joined over every way
// execution can reach a block; mismatches degrade to unknown.
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

// provState is the pre-pass dataflow state at one block entry: a fact per
// register, plus facts about absolutely-addressed memory words. SP is
// itself tracked as a constant (the startup stub materializes it and
// frames adjust it by immediates), so spill slots have known absolute
// addresses and survive the pass — which is what lets a pointer spilled
// before a MARK and reloaded after it keep its provenance.
//
// The integer registers' facts are stored inline. The float registers'
// facts live in an array allocated with the first nonzero one: compiled
// code never gives a float register a fact (only malformed artifacts
// do), so a block's state takes 424 bytes. Read and write facts through
// reg and setReg. reached marks the blocks the pass has visited.
type provState struct {
	ints    [isa.NumIntRegs]provReg
	floats  *[isa.NumFloatRegs]provReg
	mem     provWords
	reached bool
}

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

// copyFrom makes s's facts a copy of src's, reusing s's words.
func (s *provState) copyFrom(src *provState) {
	s.ints = src.ints
	s.floats = nil
	if src.floats != nil {
		fl := *src.floats
		s.floats = &fl
	}
	s.mem = append(s.mem[:0], src.mem...)
}

// meet joins out into s, reporting change: facts that differ degrade to
// unknown, and a word must be known on both sides to survive.
func (s *provState) meet(out *provState) bool {
	changed := false
	for r := range s.ints {
		if m := s.ints[r].meet(out.ints[r]); m != s.ints[r] {
			s.ints[r] = m
			changed = true
		}
	}
	if s.floats != nil { // a zero fact meets anything to zero
		for r, f := range s.floats {
			if m := f.meet(out.reg(isa.Reg(isa.NumIntRegs + r))); m != f {
				s.floats[r] = m
				changed = true
			}
		}
	}
	return s.mem.meet(out.mem) || changed
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
// are sorted, so one pass over each suffices.
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

// provPass computes the provenance facts at every block entry, flowing
// straight through MARKs. Region boundaries erase value provenance from
// the per-region analysis (live-in registers and stack slots become
// opaque symbols), which loses facts the machine itself preserves:
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
// States live only at block entries. The pass sweeps the blocks in
// reverse postorder, round after round, stepping each pending block from
// its entry state through one scratch state (provBlock) and meeting the
// result into each successor's entry state; a successor that changes
// becomes pending. A block's entry state only ever degrades, one fact at
// a time, so the sweeps end. When they do, every successor's state has
// absorbed the output of its predecessor's last step, which started from
// that predecessor's final entry state: the final states are a fixpoint,
// although the transfer functions are not monotone. The block order is
// fixed, so the facts are deterministic. The order of words does not
// matter to load, store, dropWords or meet.
func (vf *verifier) provPass() {
	g := &vf.blocks
	prov := make([]provState, len(g.start))
	entry := g.of[vf.p.Entry]
	prov[entry].reached = true
	order := g.postorder(entry)
	pending := make([]bool, len(g.start))
	pending[entry] = true
	var cur provState
	for left := 1; left > 0; {
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			if !pending[b] {
				continue
			}
			pending[b] = false
			left--
			cur.copyFrom(&prov[b])
			vf.provBlock(&cur, b)
			for _, s := range g.succs(b) {
				next := &prov[s]
				if next.reached && !next.meet(&cur) {
					continue
				}
				if !next.reached {
					next.copyFrom(&cur)
					next.reached = true
				}
				if !pending[s] {
					pending[s] = true
					left++
				}
			}
		}
	}
	vf.prov = prov
}

// provBlock steps st, the state on entry to block b, through the block.
func (vf *verifier) provBlock(st *provState, b int32) {
	for pc, end := vf.blocks.start[b], vf.blocks.end(b); pc < end; pc++ {
		if in := vf.p.Instrs[pc]; isProvStore(in) {
			vf.provStore(st, in)
		} else if rd, f := vf.provStep(st, pc); rd != noReg {
			st.setReg(rd, f)
		}
	}
}

// provAt returns the pre-pass facts on entry to the block that starts at
// pc.
func (vf *verifier) provAt(pc int) *provState { return &vf.prov[vf.blocks.of[pc]] }

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
// updates st's words, read on entry to the store, in place.
func (vf *verifier) provStore(st *provState, in isa.Instr) {
	a := st.reg(in.Rs1)
	switch {
	case a.ck:
		var v provReg
		if in.Op == isa.STR {
			v = st.reg(in.Rs2)
		}
		st.mem.store(a.cv+in.Imm, v)
	case in.Rs1 == isa.SP:
		// Unknown SP (function called from several stack depths): the
		// store lands somewhere in the current frame, so only facts in
		// the stack range are at risk.
		st.mem.dropWords(func(addr int64) bool { return addr >= vf.p.GlobalEnd })
	case a.obj != 0:
		// Store somewhere inside one global: facts about other objects
		// and the stack survive.
		st.mem.dropWords(func(addr int64) bool { g, _ := vf.anchor(addr); return g == a.obj })
	default:
		st.mem = st.mem[:0]
	}
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
