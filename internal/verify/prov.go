package verify

import "idemproc/internal/isa"

// provReg is the whole-program pre-pass lattice for one value: which
// global object it must point into when used as an address (obj, 0 =
// unknown), and — independently — whether it is a known compile-time
// constant (ck/cv). Both facts are path-invariants joined over every way
// execution can reach a pc; mismatches degrade to unknown, so the
// fixpoint is immediate.
type provReg struct {
	obj int64 // global object anchor (0 = unknown)
	ck  bool  // constant value known on every path
	cv  int64
}

// provState is the pre-pass dataflow state at one pc: a fact per
// register, plus facts about absolutely-addressed memory words. SP is
// itself tracked as a constant (the startup stub materializes it and
// frames adjust it by immediates), so spill slots have known absolute
// addresses and survive the pass — which is what lets a pointer spilled
// before a MARK and reloaded after it keep its provenance.
//
// mem holds only words with a nonzero fact, in insertion order; on the
// workload matrix it averages 9 entries and peaks at 44, so it is a slice
// searched linearly. reached marks the pcs the pass has visited.
type provState struct {
	regs    [isa.NumRegs]provReg
	mem     []provWord
	reached bool
}

type provWord struct {
	addr int64
	f    provReg
}

// copyFrom makes s's facts a copy of src's, reusing s's storage.
func (s *provState) copyFrom(src *provState) {
	s.regs = src.regs
	s.mem = append(s.mem[:0], src.mem...)
}

// load returns the fact about the word at addr (zero when none).
func (s *provState) load(addr int64) provReg {
	for _, w := range s.mem {
		if w.addr == addr {
			return w.f
		}
	}
	return provReg{}
}

// store records f for the word at addr; a zero fact removes the word.
func (s *provState) store(addr int64, f provReg) {
	for i, w := range s.mem {
		if w.addr == addr {
			if f == (provReg{}) {
				s.mem = append(s.mem[:i], s.mem[i+1:]...)
			} else {
				s.mem[i].f = f
			}
			return
		}
	}
	if f != (provReg{}) {
		s.mem = append(s.mem, provWord{addr, f})
	}
}

// dropWords removes every word whose address drop reports.
func (s *provState) dropWords(drop func(addr int64) bool) {
	mem := s.mem[:0]
	for _, w := range s.mem {
		if !drop(w.addr) {
			mem = append(mem, w)
		}
	}
	s.mem = mem
}

// mergeFrom joins out into s, reporting change: facts that differ
// degrade to unknown, and a word must be known on both sides to survive.
func (s *provState) mergeFrom(out *provState) bool {
	changed := false
	for r := range s.regs {
		if s.regs[r].obj != out.regs[r].obj && s.regs[r].obj != 0 {
			s.regs[r].obj = 0
			changed = true
		}
		if s.regs[r].ck && (!out.regs[r].ck || s.regs[r].cv != out.regs[r].cv) {
			s.regs[r].ck, s.regs[r].cv = false, 0
			changed = true
		}
	}
	mem := s.mem[:0]
	for _, w := range s.mem {
		of := out.load(w.addr)
		merged := w.f
		if merged.obj != of.obj {
			merged.obj = 0
		}
		if merged.ck && (!of.ck || merged.cv != of.cv) {
			merged.ck, merged.cv = false, 0
		}
		if merged != w.f {
			changed = true
		}
		if merged != (provReg{}) {
			mem = append(mem, provWord{w.addr, merged})
		}
	}
	s.mem = mem
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
func (vf *verifier) provPass() []provState {
	instrs := vf.p.Instrs
	prov := make([]provState, len(instrs))
	entry := vf.p.Entry
	prov[entry].reached = true
	wl := append(vf.wl[:0], entry)
	vf.inWL[entry] = true
	var out provState
	for head := 0; head < len(wl); head++ {
		pc := wl[head]
		vf.inWL[pc] = false
		out.copyFrom(&prov[pc])
		vf.provStep(&out, pc)
		for _, s := range vf.provSuccs(pc) {
			if s < 0 || s >= len(instrs) {
				continue
			}
			cur := &prov[s]
			changed := true
			if cur.reached {
				changed = cur.mergeFrom(&out)
			} else {
				cur.copyFrom(&out)
				cur.reached = true
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

// provStep is the transfer function: track global anchors and constants
// through moves, arithmetic and constant-addressed memory, drop them
// everywhere else.
func (vf *verifier) provStep(st *provState, pc int) {
	in := vf.p.Instrs[pc]
	if in.Shadow != 0 || in.Meta {
		return
	}
	regs := &st.regs
	switch in.Op {
	case isa.MOVI:
		g, _ := vf.anchor(in.Imm)
		regs[in.Rd] = provReg{obj: g, ck: true, cv: in.Imm}
	case isa.MOV, isa.FMOV:
		regs[in.Rd] = regs[in.Rs1]
	case isa.ADDI:
		a := regs[in.Rs1]
		out := provReg{obj: a.obj}
		if a.ck {
			out.ck, out.cv = true, a.cv+in.Imm
			out.obj, _ = vf.anchor(out.cv)
		}
		regs[in.Rd] = out
	case isa.ADD:
		// Constant operands win the anchor, mirroring addVals' const-anchor
		// priority: `base + index` anchors to the global the constant base
		// names, and the index side's tag — which may be a scalar that
		// merely passed through a small constant — is ignored. Only when
		// neither side is a known constant do the object tags join.
		a, b := regs[in.Rs1], regs[in.Rs2]
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
		regs[in.Rd] = out
	case isa.SUB:
		a, b := regs[in.Rs1], regs[in.Rs2]
		var out provReg
		switch {
		case a.ck && b.ck:
			out.ck, out.cv = true, a.cv-b.cv
			out.obj, _ = vf.anchor(out.cv)
		case b.ck || b.obj == 0:
			// Pointer minus a scalar stays inside the pointed-to object.
			out.obj = a.obj
		}
		regs[in.Rd] = out
	case isa.MUL:
		a, b := regs[in.Rs1], regs[in.Rs2]
		var out provReg
		if a.ck && b.ck {
			out.ck, out.cv = true, a.cv*b.cv
			out.obj, _ = vf.anchor(out.cv)
		}
		regs[in.Rd] = out
	case isa.LDR:
		a := regs[in.Rs1]
		var out provReg
		if a.ck {
			out = st.load(a.cv + in.Imm)
		}
		regs[in.Rd] = out
	case isa.STR, isa.FSTR:
		a := regs[in.Rs1]
		switch {
		case a.ck:
			var v provReg
			if in.Op == isa.STR {
				v = regs[in.Rs2]
			}
			st.store(a.cv+in.Imm, v)
		case in.Rs1 == isa.SP:
			// Unknown SP (function called from several stack depths): the
			// store lands somewhere in the current frame, so only facts in
			// the stack range are at risk.
			st.dropWords(func(addr int64) bool { return addr >= vf.p.GlobalEnd })
		case a.obj != 0:
			// Store somewhere inside one global: facts about other objects
			// and the stack survive.
			st.dropWords(func(addr int64) bool { g, _ := vf.anchor(addr); return g == a.obj })
		default:
			st.mem = st.mem[:0]
		}
	case isa.CALL:
		regs[isa.LR] = provReg{}
	case isa.FLDR, isa.FMOVI, isa.DIV, isa.REM,
		isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.ASR,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE,
		isa.NEG, isa.MVN, isa.FTOI, isa.ITOF, isa.FNEG,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV,
		isa.FSEQ, isa.FSNE, isa.FSLT, isa.FSLE, isa.FSGT, isa.FSGE:
		// Every other producing op yields an untracked value.
		regs[in.Rd] = provReg{}
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
