package machine

import (
	"math/rand"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/ir"
)

// compile builds a program from IR text, conventionally or idempotently.
func compile(t *testing.T, src, main string, idem bool) *codegen.Program {
	t.Helper()
	m := ir.MustParse(src)
	p, _, err := codegen.CompileModule(m, main, 4096, idem, core.DefaultOptions())
	if err != nil {
		t.Fatalf("CompileModule(idem=%v): %v", idem, err)
	}
	return p
}

// runBoth compiles src both ways, runs both binaries and the interpreter,
// and checks full agreement on the result.
func runBoth(t *testing.T, src, main string, args ...uint64) (base, idem *Machine) {
	t.Helper()
	ref := ir.MustParse(src)
	in := ir.NewInterp(ref, 4096)
	iargs := make([]ir.Word, len(args))
	for i, a := range args {
		iargs[i] = ir.Word(a)
	}
	want, ierr := in.Run(main, iargs...)

	pb := compile(t, src, main, false)
	pi := compile(t, src, main, true)
	mb := New(pb, Config{})
	mi := New(pi, Config{BufferStores: true, TrackPaths: true})
	gb, eb := mb.Run(args...)
	gi, ei := mi.Run(args...)
	if (ierr == nil) != (eb == nil) || (ierr == nil) != (ei == nil) {
		t.Fatalf("error divergence: interp=%v base=%v idem=%v", ierr, eb, ei)
	}
	if ierr == nil {
		if gb != uint64(want) {
			t.Fatalf("baseline result %d, interpreter %d\n%s", gb, want, codegen.Disassemble(pb))
		}
		if gi != uint64(want) {
			t.Fatalf("idempotent result %d, interpreter %d\n%s", gi, want, codegen.Disassemble(pi))
		}
	}
	return mb, mi
}

const sumSrc = `
global @data [16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}

func @sum(i64 %n) i64 {
e:
  %g = global @data
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %p = add %g, %i
  %x = load %p
  %acc2 = add %acc, %x
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`

func TestRunSimpleLoop(t *testing.T) {
	mb, mi := runBoth(t, sumSrc, "sum", 16)
	if mb.Stats.DynInstrs == 0 || mb.Stats.Cycles == 0 {
		t.Fatal("no stats accumulated")
	}
	// The idempotent binary executes MARKs; the baseline has none.
	if mb.Stats.Marks != 0 {
		t.Fatal("baseline must not execute MARKs")
	}
	if mi.Stats.Marks == 0 {
		t.Fatal("idempotent binary must execute MARKs")
	}
	if len(mi.Stats.PathLens) == 0 {
		t.Fatal("path tracking produced no samples")
	}
}

const storeSrc = `
global @out [8]

func @fill(i64 %n) i64 {
e:
  %g = global @out
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %p = add %g, %i
  %sq = mul %i, %i
  store %p, %sq
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  %p3 = add %g, 3
  %x = load %p3
  ret %x
}
`

func TestMemoryAgreement(t *testing.T) {
	runBoth(t, storeSrc, "fill", 8)
	// Also compare final global memory between binaries.
	pb := compile(t, storeSrc, "fill", false)
	pi := compile(t, storeSrc, "fill", true)
	mb := New(pb, Config{})
	mi := New(pi, Config{BufferStores: true})
	if _, err := mb.Run(8); err != nil {
		t.Fatal(err)
	}
	if _, err := mi.Run(8); err != nil {
		t.Fatal(err)
	}
	gb := pb.GlobalBase["out"]
	gi := pi.GlobalBase["out"]
	for i := int64(0); i < 8; i++ {
		if mb.Mem[gb+i] != mi.Mem[gi+i] {
			t.Fatalf("memory diverges at out[%d]: %d vs %d", i, mb.Mem[gb+i], mi.Mem[gi+i])
		}
		if mb.Mem[gb+i] != uint64(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, mb.Mem[gb+i], i*i)
		}
	}
}

const callSrc = `
func @sq(i64 %x) i64 {
e:
  %r = mul %x, %x
  ret %r
}

func @sumsq(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %s = call @sq(%i)
  %acc2 = add %acc, %s
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`

func TestCalls(t *testing.T) {
	runBoth(t, callSrc, "sumsq", 5) // 0+1+4+9+16 = 30
}

const recursionSrc = `
func @fact(i64 %n) i64 {
e:
  %c = le %n, 1
  condbr %c, base, rec
base:
  ret 1
rec:
  %n1 = sub %n, 1
  %r = call @fact(%n1)
  %out = mul %r, %n
  ret %out
}
`

func TestRecursion(t *testing.T) {
	runBoth(t, recursionSrc, "fact", 10)
}

const floatSrc = `
func @horner(f64 %x, i64 %n) f64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi.f64 [e: 1.0], [l: %acc2]
  %t = fmul %acc, %x
  %acc2 = fadd %t, 0.5
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`

func TestFloat(t *testing.T) {
	// Result returned in f0; compare bit patterns via the interpreter.
	ref := ir.MustParse(floatSrc)
	in := ir.NewInterp(ref, 4096)
	want, err := in.Run("horner", ir.F2W(1.5), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, idem := range []bool{false, true} {
		p := compile(t, floatSrc, "horner", idem)
		m := New(p, Config{BufferStores: idem})
		// Calling convention: float args in f0.., int args in r0.. —
		// Run only fills integer registers, so set f0 directly.
		m.Regs[16] = ir.F2W(1.5)
		if _, err := m.Run(10); err != nil {
			t.Fatal(err)
		}
		if got := m.Regs[16]; got != uint64(want) {
			t.Fatalf("idem=%v: horner = %x, want %x", idem, got, want)
		}
	}
}

const allocaSrc = `
func @median3(i64 %a, i64 %b, i64 %c) i64 {
e:
  %buf = alloca 3
  store %buf, %a
  %p1 = add %buf, 1
  store %p1, %b
  %p2 = add %buf, 2
  store %p2, %c
  br pass0
pass0:
  br l
l:
  %round = phi [pass0: 0], [next: %round2]
  br l1
l1:
  br inner
inner:
  %i = phi [l1: 0], [l2: %i2]
  %pi = add %buf, %i
  %pj = add %pi, 1
  %x = load %pi
  %y = load %pj
  %gt = gt %x, %y
  condbr %gt, swap, l2
swap:
  store %pi, %y
  store %pj, %x
  br l2
l2:
  %i2 = add %i, 1
  %c2 = lt %i2, 2
  condbr %c2, inner, next
next:
  %round2 = add %round, 1
  %c3 = lt %round2, 2
  condbr %c3, l, done
done:
  %pm = add %buf, 1
  %r = load %pm
  ret %r
}
`

func TestAllocaBubbleSort(t *testing.T) {
	// A tiny bubble sort (two fixed passes) over a stack array: exercises
	// allocas, stores, loads, nested loops with conditional swaps.
	cases := [][4]uint64{
		{3, 1, 2, 2}, {1, 2, 3, 2}, {9, 9, 1, 9}, {5, 5, 5, 5}, {7, 2, 5, 5},
	}
	for _, c := range cases {
		ref := ir.MustParse(allocaSrc)
		in := ir.NewInterp(ref, 4096)
		want, err := in.Run("median3", ir.Word(c[0]), ir.Word(c[1]), ir.Word(c[2]))
		if err != nil {
			t.Fatal(err)
		}
		if uint64(want) != c[3] {
			t.Fatalf("median3(%v) interp = %d, want %d", c[:3], want, c[3])
		}
		runBoth(t, allocaSrc, "median3", c[0], c[1], c[2])
	}
}

func TestCycleModelSanity(t *testing.T) {
	mb, mi := runBoth(t, sumSrc, "sum", 16)
	if mb.Stats.Cycles < mb.Stats.DynInstrs/2 {
		t.Fatalf("two-issue machine cannot beat IPC 2: %d cycles for %d instrs",
			mb.Stats.Cycles, mb.Stats.DynInstrs)
	}
	// The idempotent binary must not be faster than the baseline here
	// (it strictly adds MARKs and possibly spills).
	if mi.Stats.Cycles < mb.Stats.Cycles {
		t.Fatalf("idempotent (%d cycles) beat baseline (%d cycles)",
			mi.Stats.Cycles, mb.Stats.Cycles)
	}
}

func TestStepLimit(t *testing.T) {
	src := `
func @spin() void {
e:
  br e
}
`
	p := compile(t, src, "spin", false)
	m := New(p, Config{MaxSteps: 1000})
	if _, err := m.Run(); err == nil {
		t.Fatal("expected step-limit error")
	}
	// The limit fires on the first instruction past MaxSteps.
	if got := m.Stats.DynInstrs; got != 1001 {
		t.Fatalf("stopped after %d instructions, want 1001", got)
	}
}

func TestInvalidAddress(t *testing.T) {
	src := `
func @bad() i64 {
e:
  %z = const 0
  %x = load %z
  ret %x
}
`
	p := compile(t, src, "bad", false)
	m := New(p, Config{})
	if _, err := m.Run(); err == nil {
		t.Fatal("expected invalid-address error")
	}
}

// TestRandomProgramsAgainstInterp generates random loop programs and
// cross-checks machine vs interpreter on both compilations.
func TestRandomProgramsAgainstInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		src := randomLoopProgram(rng)
		runBoth(t, src, "f", uint64(rng.Intn(12)))
	}
}

func randomLoopProgram(rng *rand.Rand) string {
	ops := []string{"add", "sub", "mul", "xor", "or", "and"}
	body := ""
	vals := []string{"%i", "%acc", "%x"}
	for k := 0; k < 1+rng.Intn(5); k++ {
		op := ops[rng.Intn(len(ops))]
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		v := []string{"%va", "%vb", "%vc", "%vd", "%ve", "%vf"}[k]
		body += "  " + v + " = " + op + " " + a + ", " + b + "\n"
		vals = append(vals, v)
	}
	last := vals[len(vals)-1]
	return `
global @g [8] = {1, 2, 3, 4, 5, 6, 7, 8}

func @f(i64 %n) i64 {
e:
  %gb = global @g
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %idx = rem %i, 8
  %p = add %gb, %idx
  %x = load %p
` + body + `
  %acc2 = add %acc, ` + last + `
  store %p, %acc2
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`
}
