package verify

import (
	"slices"
	"sort"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// This file keeps the provenance pre-pass as it was before it propagated
// only changed facts, as the reference that provPass must agree with at
// every pc.

// refProvState is the reference pre-pass state at one pc: a dense fact
// per register and the words in insertion order.
type refProvState struct {
	regs    [isa.NumRegs]provReg
	mem     []provWord
	reached bool
}

// copyFrom makes s's facts a copy of src's, reusing s's storage.
func (s *refProvState) copyFrom(src *refProvState) {
	s.regs = src.regs
	s.mem = append(s.mem[:0], src.mem...)
}

// load returns the fact about the word at addr (zero when none).
func (s *refProvState) load(addr int64) provReg {
	for _, w := range s.mem {
		if w.addr == addr {
			return w.f
		}
	}
	return provReg{}
}

// store records f for the word at addr; a zero fact removes the word.
func (s *refProvState) store(addr int64, f provReg) {
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
func (s *refProvState) dropWords(drop func(addr int64) bool) {
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
func (s *refProvState) mergeFrom(out *refProvState) bool {
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

// refProvPass is the pre-pass as it was before dirty propagation: each
// visit copies the pc's whole state, steps the copy and merges every
// fact of it into every successor. See provPass for what it computes.
func (vf *verifier) refProvPass() []refProvState {
	instrs := vf.p.Instrs
	prov := make([]refProvState, len(instrs))
	entry := vf.p.Entry
	prov[entry].reached = true
	wl := append(vf.wl[:0], entry)
	vf.inWL[entry] = true
	var out refProvState
	for head := 0; head < len(wl); head++ {
		pc := wl[head]
		vf.inWL[pc] = false
		out.copyFrom(&prov[pc])
		vf.refProvStep(&out, pc)
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

// refProvStep is the transfer function: track global anchors and constants
// through moves, arithmetic and constant-addressed memory, drop them
// everywhere else.
func (vf *verifier) refProvStep(st *refProvState, pc int) {
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

// checkProvPass runs provPass and the reference on p, which must pass
// structural, and reports the first pc where they disagree: its reached
// flag, any register fact, or its set of words.
func checkProvPass(t testing.TB, name string, p *codegen.Program) {
	t.Helper()
	vf := newVerifier(p)
	ref := vf.refProvPass()
	for pc := range ref {
		got, want := &vf.prov[pc], &ref[pc]
		if got.reached != want.reached {
			t.Errorf("%s: pc %d reached %t, reference %t", name, pc, got.reached, want.reached)
			return
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got.reg(r) != want.regs[r] {
				t.Errorf("%s: pc %d %s fact %+v, reference %+v", name, pc, r, got.reg(r), want.regs[r])
				return
			}
		}
		words := append([]provWord(nil), want.mem...)
		sort.Slice(words, func(i, j int) bool { return words[i].addr < words[j].addr })
		if !slices.Equal(got.mem, words) {
			t.Errorf("%s: pc %d words %v, reference %v", name, pc, got.mem, words)
			return
		}
	}
}

// TestProvPassMatchesReference holds the pre-pass to the reference's
// facts at every pc of the verdict corpus, rejected programs included.
func TestProvPassMatchesReference(t *testing.T) {
	for _, np := range verdictCorpus(t, verdictStride) {
		if len(structural(np.p)) == 0 {
			checkProvPass(t, np.name, np.p)
		}
	}
}
