package verify

import (
	"fmt"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// checkProvFixpoint runs the pre-pass on p, which must pass structural,
// and checks that its final block states are a fixpoint: stepping every
// reached block from its entry state and meeting the result into each
// successor's entry state changes nothing and reaches no new block.
func checkProvFixpoint(t testing.TB, name string, p *codegen.Program) {
	t.Helper()
	vf := newVerifier(p)
	g := &vf.blocks
	if !vf.provAt(p.Entry).reached {
		t.Errorf("%s: entry block @%d not reached", name, p.Entry)
		return
	}
	var out, next provState
	for b := range vf.prov {
		if !vf.prov[b].reached {
			continue
		}
		out.copyFrom(&vf.prov[b])
		vf.provBlock(&out, int32(b))
		for _, s := range g.succs(int32(b)) {
			next.copyFrom(&vf.prov[s])
			switch {
			case !vf.prov[s].reached:
				t.Errorf("%s: block @%d is reached and its successor @%d is not", name, g.start[b], g.start[s])
				return
			case next.meet(&out):
				t.Errorf("%s: block @%d's output changes its successor @%d's entry facts", name, g.start[b], g.start[s])
				return
			}
		}
	}
}

// TestProvPassFixpoint holds the pre-pass's block states to a fixpoint
// on every program of the verdict corpus, rejected programs included.
func TestProvPassFixpoint(t *testing.T) {
	for _, np := range verdictCorpus(t, verdictStride) {
		if len(structural(np.p)) == 0 {
			checkProvFixpoint(t, np.name, np.p)
		}
	}
}

// provOracle is a machine.Tracer that checks the pre-pass against a run:
// at every region MARK, each register but rp and each word the pre-pass
// knows a constant for at the region start must hold that constant.
type provOracle struct {
	t     *testing.T
	name  string
	m     *machine.Machine
	vf    *verifier
	known [][]constFact // by MARK pc, filled on the region's first entry

	regions, regs, words int
}

// constFact is a constant the pre-pass knows on entry to a region: a
// register's, or a memory word's when word is set.
type constFact struct {
	word bool
	at   int64 // the register, or the word's address
	v    int64
}

func (f constFact) String() string {
	if f.word {
		return fmt.Sprintf("mem[%d]", f.at)
	}
	return isa.Reg(f.at).String()
}

// facts returns the constants the pre-pass knows at the start of the
// region the MARK at pc opens.
func (o *provOracle) facts(pc int) []constFact {
	if o.known[pc] != nil {
		return o.known[pc]
	}
	fs := []constFact{}
	pv := o.vf.provAt(regionStart(o.vf.p.Instrs, pc))
	if !pv.reached {
		o.t.Errorf("%s: the run enters the region @%d, which the pre-pass never reached", o.name, pc)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if f := pv.reg(r); f.ck && r != isa.RP {
			fs = append(fs, constFact{at: int64(r), v: f.cv})
		}
	}
	for _, w := range pv.mem {
		if w.f.ck {
			fs = append(fs, constFact{word: true, at: w.addr, v: w.f.cv})
		}
	}
	o.known[pc] = fs
	return fs
}

// Instr runs after each instruction, while m.PC is still its pc.
func (o *provOracle) Instr(in isa.Instr, _ int64, _ uint64) {
	if !isRegionMark(in) {
		return
	}
	o.regions++
	if o.t.Failed() {
		return // the first mismatch is enough
	}
	pc := o.m.PC
	for _, f := range o.facts(pc) {
		var got uint64
		if f.word {
			o.words++
			if f.at <= 0 || f.at >= int64(len(o.m.Mem)) {
				o.t.Errorf("%s: region @%d: the pre-pass knows %s, outside memory", o.name, pc, f)
				continue
			}
			got = o.m.Mem[f.at]
		} else {
			o.regs++
			got = o.m.Regs[f.at]
		}
		if got != uint64(f.v) {
			o.t.Errorf("%s: region @%d entered with %s = %d, pre-pass says %d", o.name, pc, f, int64(got), f.v)
		}
	}
}

func (o *provOracle) Call() {}
func (o *provOracle) Ret()  {}

// TestProvPassSound runs the maxregion8 build of every workload, whose
// small regions strand the most constants across MARKs, and checks every
// known-constant fact the pre-pass gives a region start against the
// machine's registers and memory each time the run enters that region.
func TestProvPassSound(t *testing.T) {
	var mo codegen.ModuleOptions
	for _, m := range matrix {
		if m.name == "maxregion8" {
			mo = m.mo
		}
	}
	var total provOracle
	for _, w := range workloads.All() {
		p := compile(t, w, mo)
		o := &provOracle{t: t, name: w.Name, vf: newVerifier(p), known: make([][]constFact, len(p.Instrs))}
		o.m = machine.New(p, machine.Config{Tracer: o})
		if _, err := o.m.Run(w.Args...); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.regions == 0 {
			t.Errorf("%s: the run entered no region", w.Name)
		}
		total.regions += o.regions
		total.regs += o.regs
		total.words += o.words
	}
	t.Logf("%d region entries, %d register facts, %d word facts checked", total.regions, total.regs, total.words)
}
