package codegen

import (
	"runtime"
	"strings"
	"testing"

	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/isa"
	"idemproc/internal/workloads"
)

func compileSrc(t *testing.T, src, main string, idem bool) (*Program, *BuildStats) {
	t.Helper()
	m := ir.MustParse(src)
	p, st, err := CompileModule(m, main, 4096, idem, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p, st
}

func TestFallthroughElidesBranches(t *testing.T) {
	src := `
func @f(i64 %a) i64 {
e:
  condbr %a, t, u
t:
  br j
u:
  br j
j:
  %r = phi [t: 1], [u: 2]
  ret %r
}
`
	p, _ := compileSrc(t, src, "f", false)
	// The block layout e,t,u,j (+ split blocks) should keep unconditional
	// branch count low: every block-to-next fallthrough is elided.
	branches := 0
	for _, in := range p.Instrs {
		if in.Op == isa.B {
			branches++
		}
	}
	if branches > 2 {
		t.Fatalf("too many unconditional branches (%d):\n%s", branches, Disassemble(p))
	}
}

func TestLinkResolvesCalls(t *testing.T) {
	src := `
func @g() i64 {
e:
  ret 7
}

func @f() i64 {
e:
  %x = call @g()
  ret %x
}
`
	p, _ := compileSrc(t, src, "f", false)
	for i, in := range p.Instrs {
		if in.Op == isa.CALL {
			if in.Imm < 0 || int(in.Imm) >= len(p.Instrs) {
				t.Fatalf("unresolved call at %d: %v", i, in)
			}
			if in.Sym == "g" && int(in.Imm) != p.FuncEntry["g"] {
				t.Fatalf("call to g resolved to %d, entry is %d", in.Imm, p.FuncEntry["g"])
			}
		}
	}
	if p.FuncOf[p.FuncEntry["g"]] != "g" {
		t.Fatal("FuncOf mapping wrong")
	}
}

func TestLinkRejectsUndefinedCall(t *testing.T) {
	src := `
func @f() i64 {
e:
  %x = call @nosuch()
  ret %x
}
`
	m := ir.MustParse(src)
	// Must reach the linker: the callee is syntactically fine.
	if _, _, err := CompileModule(m, "f", 4096, false, core.DefaultOptions()); err == nil {
		t.Fatal("expected link error for undefined callee")
	}
}

func TestMarksOnlyInIdempotentBuild(t *testing.T) {
	src := `
global @g [2]

func @f(i64 %a) i64 {
e:
  %p = global @g
  %x = load %p
  %y = add %x, %a
  store %p, %y
  ret %y
}
`
	pb, stb := compileSrc(t, src, "f", false)
	pi, sti := compileSrc(t, src, "f", true)
	if stb.Marks != 0 {
		t.Fatal("baseline has marks")
	}
	if sti.Marks == 0 {
		t.Fatal("idempotent build lacks marks")
	}
	count := func(p *Program) int {
		n := 0
		for _, in := range p.Instrs {
			if in.Op == isa.MARK {
				n++
			}
		}
		return n
	}
	if count(pb) != 0 || count(pi) != sti.Marks {
		t.Fatal("mark counts inconsistent with BuildStats")
	}
}

func TestGlobalLayoutMatchesInterpreter(t *testing.T) {
	src := `
global @a [3]
global @b [5]

func @f() i64 {
e:
  ret 0
}
`
	m := ir.MustParse(src)
	base, end := LayoutGlobals(m)
	if base["a"] != 1 || base["b"] != 4 || end != 9 {
		t.Fatalf("layout = %v, end = %d", base, end)
	}
	in := ir.NewInterp(m, 64)
	if in.GlobalAddr("a") != base["a"] || in.GlobalAddr("b") != base["b"] {
		t.Fatal("machine layout diverges from interpreter layout")
	}
}

func TestDisassembleShowsFunctions(t *testing.T) {
	src := `
func @f() i64 {
e:
  ret 3
}
`
	p, _ := compileSrc(t, src, "f", false)
	d := Disassemble(p)
	if !strings.Contains(d, "<f>:") {
		t.Fatalf("disassembly lacks function label:\n%s", d)
	}
}

func TestRepairCutsReported(t *testing.T) {
	// A loop whose cuts land mid-body around a call triggers the
	// live-in-redefinition repair path (the φ value wraps a region).
	src := `
global @acc [16]

func @bump(i64 %s, i64 %v) i64 {
e:
  %g = global @acc
  %p = add %g, %s
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
	m := ir.MustParse(src)
	globalBase, _ := LayoutGlobals(m)
	total := 0
	for _, f := range m.Funcs {
		res, err := core.Construct(f, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(f, globalBase, Options{Cuts: res.Cuts})
		if err != nil {
			t.Fatal(err)
		}
		total += c.RepairCuts
	}
	if total == 0 {
		t.Log("note: no repair cuts needed (construction covered the case)")
	}
}

func TestManyParamsParallelMoves(t *testing.T) {
	// Four int parameters used in reverse order stress the entry
	// parallel move (registers may permute).
	src := `
func @f(i64 %a, i64 %b, i64 %c, i64 %d) i64 {
e:
  %x = sub %d, %c
  %y = sub %b, %a
  %z = mul %x, %y
  ret %z
}
`
	p, _ := compileSrc(t, src, "f", false)
	_ = p
	// Execution-level validation happens in machine tests; here just
	// check it compiled and no param register is read after being
	// clobbered within the prologue move sequence.
	// (Structural check: the expansion is deterministic, so compiling
	// twice must agree.)
	p2, _ := compileSrc(t, src, "f", false)
	if len(p.Instrs) != len(p2.Instrs) {
		t.Fatal("nondeterministic compilation")
	}
	for i := range p.Instrs {
		if p.Instrs[i] != p2.Instrs[i] {
			t.Fatalf("instruction %d differs between identical compilations", i)
		}
	}
}

func TestMixedFloatIntArgs(t *testing.T) {
	src := `
func @g(f64 %x, i64 %n, f64 %y) f64 {
e:
  %nf = i2f %n
  %t = fmul %x, %nf
  %r = fadd %t, %y
  ret %r
}

func @f(i64 %n) f64 {
e:
  %a = const.f64 2.5
  %b = const.f64 0.5
  %r = call.f64 @g(%a, %n, %b)
  ret %r
}
`
	p, _ := compileSrc(t, src, "f", false)
	// g's params: x→f0, n→r0, y→f1 by per-type position.
	if p.FuncEntry["g"] == 0 {
		t.Fatal("g not linked")
	}
}

// TestStackGrowthModest checks the paper's claim that the idempotent
// compilation "does not grow the size of the stack significantly": summed
// frame sizes stay within 2x of the conventional build across a
// register-pressure-heavy function.
func TestStackGrowthModest(t *testing.T) {
	src := `
global @g [4]

func @f(i64 %n) i64 {
e:
  %p = global @g
  %x = load %p
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %a = phi [e: %x], [l: %a2]
  %b = phi [e: 1], [l: %b2]
  %c = phi [e: 2], [l: %c2]
  %d = phi [e: 3], [l: %d2]
  %a2 = add %a, %b
  %b2 = add %b, %c
  %c2 = add %c, %d
  %d2 = xor %d, %a
  store %p, %a2
  %i2 = add %i, 1
  %cc = lt %i2, %n
  condbr %cc, l, x
x:
  ret %a2
}
`
	frames := func(idem bool) int {
		m := ir.MustParse(src)
		_, st, err := CompileModule(m, "f", 4096, idem, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return st.FrameWords
	}
	base, id := frames(false), frames(true)
	if id > base*2+8 {
		t.Fatalf("idempotent frames %d vs conventional %d — stack grew too much", id, base)
	}
}

// compileAllocCeiling bounds the allocations of one default idempotent
// compile of mcf, parse included. With the compiler's analyses on slices
// indexed by value ID and block index it makes 7,451 (7,467 when Link
// grew the program by append); on the hash maps they kept before it made
// 10,169. Putting back the maps of any one of
// ssa.Build (7,813), cfg's loop nesting (7,864) or core's placement,
// self-dependence and unroll passes (8,546), or codegen's per-pass vreg
// table (7,788), exceeds the ceiling.
const compileAllocCeiling = 7700

// compileBytesCeiling bounds the bytes the same compile allocates: 1.01 MB
// on slices with Link sizing the program once, 1.07 MB when Link grew
// the program by append, 1.67 MB on the maps. Growing Link's slices by
// append again exceeds it, as does putting back the maps of ssa.Build
// (1.20 MB), alias.Compute (1.15 MB), ir.Verify (1.17 MB) or core (1.18
// MB), or codegen's per-pass vreg table and unsized blocks (1.17 MB),
// each measured while Link still grew by append.
const compileBytesCeiling = 1_050_000

// TestCompileAllocs guards the compiler's allocation count and bytes on
// mcf under the default options.
func TestCompileAllocs(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	mo := ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	compile := func() {
		if _, _, err := CompileModuleOpts(w.Module(), "main", w.MemWords, mo); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5, compile); n > compileAllocCeiling {
		t.Fatalf("CompileModuleOpts(mcf) allocates %.0f times, ceiling %d", n, compileAllocCeiling)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > compileBytesCeiling {
		t.Fatalf("CompileModuleOpts(mcf) allocates %d bytes, ceiling %d", n, compileBytesCeiling)
	}
}
