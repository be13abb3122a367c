package fault

import (
	"errors"
	"slices"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// kernel: a store-and-load loop with calls, enough to exercise every
// scheme's machinery.
const kernelSrc = `
global @acc [16]

func @bump(i64 %slot, i64 %v) i64 {
e:
  %g = global @acc
  %p = add %g, %slot
  %old = load %p
  %new = add %old, %v
  store %p, %new
  ret %new
}

func @main(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %slot = rem %i, 16
  %r = call @bump(%slot, %i)
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %r
}
`

func buildProgram(t *testing.T, idem bool) *codegen.Program {
	t.Helper()
	m := ir.MustParse(kernelSrc)
	p, _, err := codegen.CompileModule(m, "main", 4096, idem, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func countOps(p *codegen.Program, op isa.Op) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}

func countShadow(p *codegen.Program) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Shadow > 0 {
			n++
		}
	}
	return n
}

func TestTransformShapes(t *testing.T) {
	base := buildProgram(t, false)

	dmr := Apply(base, SchemeDMR)
	if countOps(dmr, isa.CHECK) == 0 || countShadow(dmr) == 0 {
		t.Fatal("DMR must insert checks and shadow copies")
	}
	tmr := Apply(base, SchemeTMR)
	if countOps(tmr, isa.MAJ) == 0 {
		t.Fatal("TMR must insert majority votes")
	}
	if countShadow(tmr) <= countShadow(dmr) {
		t.Fatal("TMR must insert more redundant copies than DMR")
	}
	cl := Apply(base, SchemeCheckpointLog)
	if got, want := countOps(cl, isa.FSTR), countOps(base, isa.FSTR)+countOps(base, isa.STR)-storeOfLR(base); got < want {
		t.Fatalf("CL must log every store: %d FSTRs, want ≥ %d", got, want)
	}
	// The original program is untouched.
	if countOps(base, isa.CHECK) != 0 {
		t.Fatal("Apply mutated its input")
	}
}

// TestInsertedCodeKeepsGuardedOperands is the structural check behind
// ROADMAP item 1: no instruction a transform inserts before a guarded
// instruction may write a register that the guarded instruction reads,
// or the instrumentation changes the value it guards. It covers every
// scheme on the default builds of all 31 workloads.
func TestInsertedCodeKeepsGuardedOperands(t *testing.T) {
	sites, allowedIn := 0, []string{}
	for _, w := range workloads.All() {
		var builds [2]*codegen.Program
		for i, idem := range []bool{false, true} {
			p, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, idem, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			builds[i] = p
		}
		for _, s := range Schemes {
			p := builds[0]
			if s.Idempotent() {
				p = builds[1]
			}
			for i, in := range p.Instrs {
				before, _ := schemeTable[s].edit(i, in)
				srcs, n := in.Reads()
				for _, b := range before {
					if b.Shadow != 0 || !b.Op.WritesRd() || !slices.Contains(srcs[:n], b.Rd) {
						continue
					}
					if s == SchemeCheckpointLog && logClobbersSpillStore(b, in) {
						if !slices.Contains(allowedIn, w.Name) {
							allowedIn = append(allowedIn, w.Name)
						}
						sites++
						continue
					}
					t.Errorf("%s/%s: %q, inserted before %q, overwrites %s",
						w.Name, schemeTable[s].flag, b, in, b.Rd)
				}
			}
		}
	}
	t.Logf("allowed: C&L's fldr f30 before a float spill store, %d sites in %d workloads %v",
		sites, len(allowedIn), allowedIn)
}

// logClobbersSpillStore reports C&L's one known clobber, ROADMAP item
// 1: the log reads a store's old value through f30, which is also
// codegen's float spill scratch, so before a spill store `fstr [sp, #k],
// f30` the log's `fldr f30` overwrites the value about to be stored.
// Item 1's fix deletes this allowance.
func logClobbersSpillStore(inserted, guarded isa.Instr) bool {
	return inserted.Op == isa.FLDR && inserted.Rd == isa.F(30) &&
		guarded.Op == isa.FSTR && guarded.Rs2 == isa.F(30)
}

func storeOfLR(p *codegen.Program) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == isa.STR && in.Rs2 == isa.LR {
			n++
		}
	}
	return n
}

// runScheme builds, instruments, and runs one scheme configuration.
func runScheme(t *testing.T, s Scheme, faultStep int64) (*machine.Machine, uint64, error) {
	t.Helper()
	p := Apply(buildProgram(t, s.Idempotent()), s)
	m := machine.New(p, s.Config())
	if faultStep >= 0 {
		m.InjectFault(faultStep, uint(faultStep)%63+1)
	}
	got, err := m.Run(40)
	return m, got, err
}

func TestFaultFreeEquivalence(t *testing.T) {
	// All schemes must compute the same answer as the plain binary when
	// no fault is injected.
	plain := machine.New(buildProgram(t, false), machine.Config{})
	want, err := plain.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{SchemeDMR, SchemeTMR, SchemeCheckpointLog, SchemeIdempotence} {
		_, got, err := runScheme(t, s, -1)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got != want {
			t.Fatalf("%v: result %d, want %d", s, got, want)
		}
	}
}

func TestSchemeOverheadOrdering(t *testing.T) {
	// Fault-free cycle counts: every scheme costs more than the plain
	// binary, and TMR costs more than DMR.
	cycles := map[Scheme]int64{}
	for _, s := range []Scheme{SchemeDMR, SchemeTMR, SchemeCheckpointLog, SchemeIdempotence} {
		m, _, err := runScheme(t, s, -1)
		if err != nil {
			t.Fatal(err)
		}
		cycles[s] = m.Stats.Cycles
	}
	if cycles[SchemeTMR] <= cycles[SchemeDMR] {
		t.Fatalf("TMR (%d) must cost more than DMR (%d)", cycles[SchemeTMR], cycles[SchemeDMR])
	}
	if cycles[SchemeCheckpointLog] <= cycles[SchemeDMR] {
		t.Fatalf("CL (%d) must cost more than DMR (%d)", cycles[SchemeCheckpointLog], cycles[SchemeDMR])
	}
	if cycles[SchemeIdempotence] <= cycles[SchemeDMR]*100/105 {
		// Idempotence costs a bit more than the DMR baseline on the
		// original binary (marks + compilation overhead).
		t.Logf("note: idempotence %d vs DMR %d", cycles[SchemeIdempotence], cycles[SchemeDMR])
	}
}

func TestRecoveryCorrectness(t *testing.T) {
	// Inject single-bit faults at many points; every recoverable scheme
	// must still produce the fault-free answer and memory image.
	plain := machine.New(buildProgram(t, false), machine.Config{})
	want, err := plain.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc := make([]uint64, 16)
	copy(wantAcc, plain.Mem[plain.P.GlobalBase["acc"]:plain.P.GlobalBase["acc"]+16])

	for _, s := range []Scheme{SchemeIdempotence, SchemeCheckpointLog, SchemeTMR} {
		recovered := 0
		injected := 0
		for step := int64(5); step < 600; step += 13 {
			m, got, err := runScheme(t, s, step)
			if err != nil {
				t.Fatalf("%v @%d: %v", s, step, err)
			}
			if m.Stats.Faults == 0 {
				continue // landed on a non-writing instruction
			}
			injected++
			if got != want {
				t.Fatalf("%v @%d: result %d, want %d (recoveries=%d detections=%d)",
					s, step, got, want, m.Stats.Recoveries, m.Stats.Detections)
			}
			base := m.P.GlobalBase["acc"]
			for i := int64(0); i < 16; i++ {
				if m.Mem[base+i] != wantAcc[i] {
					t.Fatalf("%v @%d: memory acc[%d] = %d, want %d", s, step, i, m.Mem[base+i], wantAcc[i])
				}
			}
			if m.Stats.Detections > 0 {
				recovered++
			}
		}
		if injected == 0 {
			t.Fatalf("%v: no faults injected", s)
		}
		if recovered == 0 {
			t.Fatalf("%v: no fault was ever detected", s)
		}
	}
}

func TestDMRDetectsWithoutRecovery(t *testing.T) {
	// With RecoverNone, a detected fault surfaces as an error.
	sawDetection := false
	for step := int64(5); step < 300 && !sawDetection; step += 7 {
		p := Apply(buildProgram(t, false), SchemeDMR)
		m := machine.New(p, machine.Config{})
		m.InjectFault(step, 3)
		_, err := m.Run(40)
		if errors.Is(err, machine.ErrDetectedUnrecoverable) {
			sawDetection = true
		}
	}
	if !sawDetection {
		t.Fatal("DMR never detected an injected fault")
	}
}

func TestInstrumentPreservesControlFlow(t *testing.T) {
	// Branch-heavy program: instrumented DMR must agree with plain run.
	src := `
func @collatz(i64 %n) i64 {
e:
  br l
l:
  %x = phi [e: %n], [odd: %x3], [even: %x2]
  %steps = phi [e: 0], [odd: %s2], [even: %s2b]
  %c = le %x, 1
  condbr %c, d, body
body:
  %r = rem %x, 2
  condbr %r, odd, even
odd:
  %t = mul %x, 3
  %x3 = add %t, 1
  %s2 = add %steps, 1
  br l
even:
  %x2 = div %x, 2
  %s2b = add %steps, 1
  br l
d:
  ret %steps
}
`
	m := ir.MustParse(src)
	p, _, err := codegen.CompileModule(m, "collatz", 4096, false, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := machine.New(p, machine.Config{})
	want, err := plain.Run(27)
	if err != nil {
		t.Fatal(err)
	}
	if want != 111 {
		t.Fatalf("collatz(27) = %d, want 111", want)
	}
	for _, s := range []Scheme{SchemeDMR, SchemeTMR, SchemeCheckpointLog} {
		// CL binaries need the log pointer their configuration initializes.
		im := machine.New(Apply(p, s), s.Config())
		got, err := im.Run(27)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got != want {
			t.Fatalf("%v: collatz = %d, want %d", s, got, want)
		}
	}
}

func TestCampaignAllSchemesCorrect(t *testing.T) {
	base := buildProgram(t, false)
	idem := buildProgram(t, true)
	for _, tc := range []struct {
		s Scheme
		p *codegen.Program
	}{
		{SchemeIdempotence, Apply(idem, SchemeIdempotence)},
		{SchemeCheckpointLog, Apply(base, SchemeCheckpointLog)},
		{SchemeTMR, Apply(base, SchemeTMR)},
	} {
		res, err := campaign(tc.p, tc.s, 40, 40)
		if err != nil {
			t.Fatalf("%v: %v", tc.s, err)
		}
		if res.Landed < 10 {
			t.Fatalf("%v: only %d faults landed", tc.s, res.Landed)
		}
		if res.Correct != res.Landed {
			t.Fatalf("%v: %d of %d landed faults produced wrong results", tc.s, res.Landed-res.Correct, res.Landed)
		}
	}
}

func TestCampaignDMRDetects(t *testing.T) {
	p := Apply(buildProgram(t, false), SchemeDMR)
	res, err := campaign(p, SchemeDMR, 30, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected == 0 {
		t.Fatal("DMR campaign never detected")
	}
}
