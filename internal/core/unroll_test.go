package core

import (
	"math/rand"
	"testing"

	"idemproc/internal/cfg"
	"idemproc/internal/ir"
	"idemproc/internal/ssa"
	"idemproc/internal/workloads"
)

const countdownSrc = `
func @cd(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: %n], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %acc2 = add %acc, %i
  %i2 = sub %i, 1
  %c = gt %i2, 0
  condbr %c, l, d
d:
  ret %acc2
}
`

func TestUnrollOncePreservesSemantics(t *testing.T) {
	m := ir.MustParse(countdownSrc)
	f := m.Func("cd")
	var header *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "l" {
			header = b
		}
	}
	if !UnrollOnce(f, header) {
		t.Fatalf("UnrollOnce refused a canonical while loop\n%s", ir.FuncString(f))
	}
	if err := ssa.VerifySSA(f); err != nil {
		t.Fatalf("SSA broken: %v\n%s", err, ir.FuncString(f))
	}
	for _, n := range []ir.Word{1, 2, 3, 7, 10} {
		in := ir.NewInterp(m, 64)
		got, err := in.Run("cd", n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := n * (n + 1) / 2
		if got != want {
			t.Fatalf("cd(%d) = %d, want %d\n%s", n, got, want, ir.FuncString(f))
		}
	}
}

func TestUnrollDoublesLoopBody(t *testing.T) {
	m := ir.MustParse(countdownSrc)
	f := m.Func("cd")
	before := len(f.Blocks)
	var header *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "l" {
			header = b
		}
	}
	if !UnrollOnce(f, header) {
		t.Fatal("unroll refused")
	}
	if len(f.Blocks) != before+1 {
		t.Fatalf("blocks: %d → %d, want +1 (single-block loop cloned)", before, len(f.Blocks))
	}
	// The loop should now contain both copies.
	info := cfg.Compute(f)
	if len(info.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(info.Loops))
	}
	if len(info.Loops[0].Blocks) != 2 {
		t.Fatalf("unrolled loop body has %d blocks, want 2", len(info.Loops[0].Blocks))
	}
}

func TestUnrollRefusesMultiExit(t *testing.T) {
	src := `
func @f(i64 %n, i64 %m) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l2: %i2]
  %c1 = eq %i, %m
  condbr %c1, x1, l2
l2:
  %i2 = add %i, 1
  %c2 = lt %i2, %n
  condbr %c2, l, x2
x1:
  ret 1
x2:
  ret 2
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	var header *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "l" {
			header = b
		}
	}
	if UnrollOnce(f, header) {
		t.Fatal("unroll must refuse a two-exit loop")
	}
	// And the function must be untouched (still verifies, same blocks).
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 5 {
		t.Fatalf("refusal must not mutate; blocks = %d", len(f.Blocks))
	}
}

func TestUnrollLoopWithMemory(t *testing.T) {
	src := `
global @a [32]

func @fill(i64 %n) i64 {
e:
  %b = global @a
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %p = add %b, %i
  store %p, %i
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  %lp = add %b, 3
  %x = load %lp
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("fill")
	var header *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "l" {
			header = b
		}
	}
	if !UnrollOnce(f, header) {
		t.Fatal("unroll refused")
	}
	in := ir.NewInterp(m, 128)
	got, err := in.Run("fill", 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("fill(9) read a[3] = %d, want 3", got)
	}
}

// TestConstructRandomPrograms: Construct on randomly generated
// memory-mutating programs must always produce a verifiable decomposition
// and preserve interpreter semantics.
func TestConstructRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		src := randomProgram(rng)
		ref := ir.MustParse(src)
		subj := ir.MustParse(src)
		res, err := Construct(subj.Func("f"), DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v\nsource:\n%s", trial, err, src)
		}
		if err := Check(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, arg := range []ir.Word{0, 1, 5} {
			a := ir.NewInterp(ref, 512)
			b := ir.NewInterp(subj, 512)
			ra, ea := a.Run("f", arg)
			rb, eb := b.Run("f", arg)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("trial %d arg %d: error divergence %v vs %v\n%s", trial, arg, ea, eb, src)
			}
			if ea == nil && ra != rb {
				t.Fatalf("trial %d arg %d: %d vs %d\nsource:\n%s\ntransformed:\n%s",
					trial, arg, ra, rb, src, ir.FuncString(subj.Func("f")))
			}
			// Global memory must match too.
			ga, gb := a.GlobalAddr("g"), b.GlobalAddr("g")
			for i := int64(0); i < 8; i++ {
				if a.Mem[ga+i] != b.Mem[gb+i] {
					t.Fatalf("trial %d arg %d: memory diverges at g[%d]\n%s", trial, arg, i, src)
				}
			}
		}
	}
}

// randomProgram emits a small single-loop function that loads, stores and
// accumulates over a global array — enough to generate antidependences of
// both alias flavours.
func randomProgram(rng *rand.Rand) string {
	body := ""
	stmts := []string{}
	vals := []string{"%i", "%acc"}
	fresh := 0
	nv := func() string {
		fresh++
		return []string{"%v", "%w", "%x", "%y", "%z"}[fresh%5] + string(rune('a'+fresh/5))
	}
	for k := 0; k < 1+rng.Intn(4); k++ {
		switch rng.Intn(4) {
		case 0: // load
			v := nv()
			idx := vals[rng.Intn(len(vals))]
			stmts = append(stmts, "  %p"+v[1:]+" = rem "+idx+", 8",
				"  %q"+v[1:]+" = add %gbase, %p"+v[1:],
				"  "+v+" = load %q"+v[1:])
			vals = append(vals, v)
		case 1: // store
			idx := vals[rng.Intn(len(vals))]
			val := vals[rng.Intn(len(vals))]
			s := nv()
			stmts = append(stmts, "  %p"+s[1:]+" = rem "+idx+", 8",
				"  %q"+s[1:]+" = add %gbase, %p"+s[1:],
				"  store %q"+s[1:]+", "+val)
		case 2: // arith
			v := nv()
			a := vals[rng.Intn(len(vals))]
			b := vals[rng.Intn(len(vals))]
			stmts = append(stmts, "  "+v+" = add "+a+", "+b)
			vals = append(vals, v)
		case 3: // arith with constant
			v := nv()
			a := vals[rng.Intn(len(vals))]
			stmts = append(stmts, "  "+v+" = mul "+a+", 3")
			vals = append(vals, v)
		}
	}
	for _, s := range stmts {
		body += s + "\n"
	}
	last := vals[len(vals)-1]
	return `
global @g [8]

func @f(i64 %n) i64 {
e:
  %gbase = global @g
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %accN]
` + body + `
  %accN = add %acc, ` + last + `
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %accN
}
`
}

// TestValueIDsStayDense: analyses index slices by value ID, so after
// lowering, the shared mid-end, region construction (unrolls included)
// and SSA destruction, every value in a workload function's blocks has
// its own ID below NumValues.
func TestValueIDsStayDense(t *testing.T) {
	check := func(stage string, m *ir.Module) {
		t.Helper()
		for _, f := range m.Funcs {
			owner := make([]*ir.Value, f.NumValues())
			for _, b := range f.Blocks {
				for _, v := range b.Instrs {
					if v.ID < 0 || v.ID >= len(owner) {
						t.Fatalf("after %s: @%s: %s has ID %d, NumValues %d", stage, f.Name, v.LongString(), v.ID, len(owner))
					}
					if owner[v.ID] != nil {
						t.Fatalf("after %s: @%s: %s and %s share ID %d", stage, f.Name, owner[v.ID].LongString(), v.LongString(), v.ID)
					}
					owner[v.ID] = v
				}
			}
		}
	}
	for _, w := range workloads.All() {
		m := w.Module()
		check("lowering", m)
		for _, f := range m.Funcs {
			MidEnd(f, true)
		}
		check("MidEnd", m)

		m = w.Module()
		for _, f := range m.Funcs {
			if _, err := Construct(f, DefaultOptions()); err != nil {
				t.Fatalf("%s/@%s: %v", w.Name, f.Name, err)
			}
		}
		check("Construct", m)
		for _, f := range m.Funcs {
			ssa.Destruct(f)
		}
		check("Destruct", m)
	}
}
