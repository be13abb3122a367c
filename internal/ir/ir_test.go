package ir

import (
	"strings"
	"testing"
)

// buildFib constructs an iterative fibonacci with the builder (non-SSA:
// uses named reassignment through Assign).
func buildFib(m *Module) *Func {
	f := m.NewFunc("fib", I64, I64)
	bd := NewBuilder(f)
	loop := f.NewBlock()
	body := f.NewBlock()
	done := f.NewBlock()

	a := bd.Assign("a", bd.ConstInt(0))
	b := bd.Assign("b", bd.ConstInt(1))
	i := bd.Assign("i", bd.ConstInt(0))
	_ = a
	_ = b
	bd.Br(loop)

	bd.SetBlock(loop)
	cond := bd.Bin(OpLt, i, f.Params[0])
	bd.CondBr(cond, body, done)

	bd.SetBlock(body)
	an := bd.Un(OpCopy, b)
	bn := bd.Bin(OpAdd, a, b)
	bd.Assign("a", an)
	bd.Assign("b", bn)
	bd.Assign("i", bd.Bin(OpAdd, i, bd.ConstInt(1)))
	bd.Br(loop)

	bd.SetBlock(done)
	bd.Ret(a)
	return f
}

func TestBuilderVerify(t *testing.T) {
	m := NewModule()
	f := buildFib(m)
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", I64, I64)
	bd := NewBuilder(f)
	bd.ConstInt(1)
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted a block without terminator")
	}
	bd.Ret(f.Params[0])
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesBadEdges(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", Void)
	bd := NewBuilder(f)
	b1 := f.NewBlock()
	bd.Br(b1)
	bd.SetBlock(b1)
	bd.Ret()
	// Corrupt: drop the pred entry.
	b1.Preds = nil
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted inconsistent preds/succs")
	}
}

const parseExample = `
global @buf [8] = {1, 2, 3}

func @sum(i64 %n) i64 {
entry:
  %g = global @buf
  %acc0 = const 0
  br loop
loop:
  %i = phi [entry: 0], [body: %i2]
  %acc = phi [entry: %acc0], [body: %acc2]
  %c = lt %i, %n
  condbr %c, body, done
body:
  %p = add %g, %i
  %x = load %p
  %acc2 = add %acc, %x
  %i2 = add %i, 1
  br loop
done:
  ret %acc
}
`

func TestParseAndInterp(t *testing.T) {
	m, err := Parse(parseExample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	in := NewInterp(m, 1024)
	got, err := in.Run("sum", 3)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 6 {
		t.Fatalf("sum of {1,2,3} = %d, want 6", int64(got))
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := MustParse(parseExample)
	text := ModuleString(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\ntext:\n%s", err, text)
	}
	// Execution semantics must survive the round trip.
	for _, n := range []Word{0, 1, 3} {
		a := NewInterp(m, 1024)
		b := NewInterp(m2, 1024)
		ra, err := a.Run("sum", n)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run("sum", n)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("round trip diverges at n=%d: %d vs %d", n, ra, rb)
		}
	}
}

func TestInterpFib(t *testing.T) {
	m := NewModule()
	buildFib(m)
	// The builder's Assign-based code is not SSA; the interpreter uses
	// value identity, so reassignment via Assign is only correct after
	// ssa.Build. Here we check the SSA-free parts with a parsed SSA
	// version instead and check Assign produces verifiable IR above.
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13}
	src := `
func @fib(i64 %n) i64 {
e:
  br l
l:
  %a = phi [e: 0], [b: %b]
  %b = phi [e: 1], [b: %s]
  %i = phi [e: 0], [b: %i2]
  %c = lt %i, %n
  condbr %c, b, d
b:
  %s = add %a, %b
  %i2 = add %i, 1
  br l
d:
  ret %a
}
`
	m2 := MustParse(src)
	for n, w := range want {
		in := NewInterp(m2, 64)
		got, err := in.Run("fib", Word(n))
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != w {
			t.Fatalf("fib(%d) = %d, want %d", n, int64(got), w)
		}
	}
}

func TestInterpFloat(t *testing.T) {
	src := `
func @poly(f64 %x) f64 {
e:
  %x2 = fmul %x, %x
  %t = fmul %x2, 2.0
  %r = fadd %t, 1.5
  ret %r
}
`
	m := MustParse(src)
	in := NewInterp(m, 64)
	got, err := in.Run("poly", F2W(3))
	if err != nil {
		t.Fatal(err)
	}
	if W2F(got) != 19.5 {
		t.Fatalf("poly(3) = %g, want 19.5", W2F(got))
	}
}

func TestInterpCall(t *testing.T) {
	src := `
func @sq(i64 %x) i64 {
e:
  %r = mul %x, %x
  ret %r
}

func @sumsq(i64 %a, i64 %b) i64 {
e:
  %x = call @sq(%a)
  %y = call @sq(%b)
  %r = add %x, %y
  ret %r
}
`
	m := MustParse(src)
	in := NewInterp(m, 64)
	got, err := in.Run("sumsq", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 25 {
		t.Fatalf("sumsq(3,4) = %d, want 25", got)
	}
}

func TestInterpAllocaFrames(t *testing.T) {
	// Recursion must give each frame distinct alloca addresses.
	src := `
func @fact(i64 %n) i64 {
e:
  %slot = alloca 1
  store %slot, %n
  %c = le %n, 1
  condbr %c, base, rec
base:
  ret 1
rec:
  %n1 = sub %n, 1
  %r = call @fact(%n1)
  %nv = load %slot
  %out = mul %r, %nv
  ret %out
}
`
	m := MustParse(src)
	in := NewInterp(m, 1024)
	got, err := in.Run("fact", 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 720 {
		t.Fatalf("fact(6) = %d, want 720", got)
	}
}

func TestInterpDivByZero(t *testing.T) {
	src := `
func @d(i64 %a, i64 %b) i64 {
e:
  %r = div %a, %b
  ret %r
}
`
	m := MustParse(src)
	in := NewInterp(m, 64)
	if _, err := in.Run("d", 1, 0); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestInterpStepLimit(t *testing.T) {
	src := `
func @spin() void {
e:
  br e
}
`
	m := MustParse(src)
	in := NewInterp(m, 64)
	in.MaxSteps = 1000
	if _, err := in.Run("spin"); err != ErrTooManySteps {
		t.Fatalf("got %v, want ErrTooManySteps", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus",
		"func @f() i64 {\ne:\n  ret %missing\n}",
		"func @f() i64 {\ne:\n  %x = frob 1, 2\n  ret %x\n}",
		"func @f() i64 {\ne:\n}", // no terminator
		"global @g",
		"func @f() i64 {\ne:\n  %x = phi [nope: 1]\n  ret %x\n}",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestRemoveUnreachable(t *testing.T) {
	src := `
func @f(i64 %a) i64 {
e:
  br out
dead:
  br out
out:
  ret %a
}
`
	m := MustParse(src)
	f := m.Func("f")
	if len(f.Blocks) != 3 {
		t.Fatalf("expected 3 blocks, got %d", len(f.Blocks))
	}
	f.RemoveUnreachable()
	if len(f.Blocks) != 2 {
		t.Fatalf("expected 2 blocks after RemoveUnreachable, got %d", len(f.Blocks))
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify after RemoveUnreachable: %v", err)
	}
	out := f.Blocks[1]
	if len(out.Preds) != 1 {
		t.Fatalf("out should have 1 pred, got %d", len(out.Preds))
	}
}

func TestBlockHelpers(t *testing.T) {
	m := MustParse(parseExample)
	f := m.Func("sum")
	var loop *Block
	for _, b := range f.Blocks {
		if b.Name == "loop" {
			loop = b
		}
	}
	if loop == nil {
		t.Fatal("no loop block")
	}
	if got := len(loop.Phis()); got != 2 {
		t.Fatalf("loop has %d phis, want 2", got)
	}
	if loop.PredIndex(loop.Preds[0]) != 0 {
		t.Fatal("PredIndex broken")
	}
	term := loop.Terminator()
	if term == nil || term.Op != OpCondBr {
		t.Fatalf("loop terminator = %v", term)
	}
}

func TestLongStringForms(t *testing.T) {
	m := MustParse(parseExample)
	text := ModuleString(m)
	for _, want := range []string{"phi", "global @buf", "condbr", "load"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}

func TestVerifyModuleCallChecks(t *testing.T) {
	good := `
func @g(i64 %x) i64 {
e:
  ret %x
}

func @f() i64 {
e:
  %r = call @g(3)
  ret %r
}
`
	if err := VerifyModule(MustParse(good)); err != nil {
		t.Fatalf("VerifyModule rejected valid module: %v", err)
	}

	cases := []string{
		// undefined callee
		"func @f() i64 {\ne:\n  %r = call @nope()\n  ret %r\n}",
		// wrong arity
		"func @g(i64 %x) i64 {\ne:\n  ret %x\n}\n\nfunc @f() i64 {\ne:\n  %r = call @g()\n  ret %r\n}",
		// wrong arg type
		"func @g(f64 %x) i64 {\ne:\n  ret 0\n}\n\nfunc @f() i64 {\ne:\n  %r = call @g(3)\n  ret %r\n}",
		// wrong result type
		"func @g(i64 %x) f64 {\ne:\n  ret 0.0\n}\n\nfunc @f() i64 {\ne:\n  %r = call @g(3)\n  ret %r\n}",
		// undeclared global
		"func @f() i64 {\ne:\n  %p = global @nosuch\n  %x = load %p\n  ret %x\n}",
	}
	for i, src := range cases {
		m, err := Parse(src)
		if err != nil {
			continue // per-function verify may already reject; fine
		}
		if err := VerifyModule(m); err == nil {
			t.Errorf("case %d: VerifyModule accepted invalid module", i)
		}
	}
}

// TestQuickPrintParseRoundTrip: for random builder-generated programs,
// ModuleString∘Parse preserves execution semantics.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	gen := func(seed int64) *Module {
		m := NewModule()
		m.AddGlobal("g", 8, []int64{3, 1, 4, 1, 5})
		f := m.NewFunc("f", I64, I64)
		bd := NewBuilder(f)
		loop := f.NewBlock()
		body := f.NewBlock()
		done := f.NewBlock()
		gp := bd.Global("g")
		bd.Br(loop)
		bd.SetBlock(loop)
		i := bd.Phi(I64)
		acc := bd.Phi(I64)
		c := bd.Bin(OpLt, i, f.Params[0])
		bd.CondBr(c, body, done)
		bd.SetBlock(body)
		s := seed
		vals := []*Value{i, acc}
		for k := 0; k < 5; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			op := []Op{OpAdd, OpSub, OpXor, OpMul}[int(uint64(s)>>33)%4]
			a := vals[int(uint64(s)>>13)%len(vals)]
			b := vals[int(uint64(s)>>23)%len(vals)]
			vals = append(vals, bd.Bin(op, a, b))
		}
		idx := bd.Bin(OpRem, i, bd.ConstInt(8))
		p := bd.Bin(OpAdd, gp, idx)
		x := bd.Load(I64, p)
		acc2 := bd.Bin(OpAdd, vals[len(vals)-1], x)
		i2 := bd.Bin(OpAdd, i, bd.ConstInt(1))
		bd.Br(loop)
		bd.SetBlock(done)
		bd.Ret(acc)
		// Wire the φs (entry, body) in pred order.
		entryZero := f.NewValue(OpConst, I64)
		entryZero.Block = f.Entry()
		f.Entry().InsertBefore(entryZero, f.Entry().Terminator())
		i.Args = []*Value{entryZero, i2}
		acc.Args = []*Value{entryZero, acc2}
		if err := Verify(f); err != nil {
			t.Fatalf("generated program invalid: %v", err)
		}
		return m
	}
	for seed := int64(0); seed < 25; seed++ {
		m1 := gen(seed)
		text := ModuleString(m1)
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text)
		}
		for _, n := range []Word{0, 3, 9} {
			a := NewInterp(m1, 256)
			b := NewInterp(m2, 256)
			ra, ea := a.Run("f", n)
			rb, eb := b.Run("f", n)
			if (ea == nil) != (eb == nil) || (ea == nil && ra != rb) {
				t.Fatalf("seed %d n=%d: %d/%v vs %d/%v", seed, n, ra, ea, rb, eb)
			}
		}
	}
}

// TestVerifyRejectsForeignValueWithCollidingID: an argument that is
// another function's value is rejected even when its ID is the ID of one
// of f's own values.
func TestVerifyRejectsForeignValueWithCollidingID(t *testing.T) {
	src := `
func @f(i64 %a) i64 {
e:
  %x = add %a, 1
  ret %x
}
`
	f, g := MustParse(src).Func("f"), MustParse(src).Func("f")
	ret, foreign := f.Entry().Terminator(), g.Entry().Terminator().Args[0]
	if own := ret.Args[0]; own == foreign || own.ID != foreign.ID {
		t.Fatalf("want distinct values with one ID, got %s#%d and %s#%d", own, own.ID, foreign, foreign.ID)
	}
	ret.Args[0] = foreign
	err := Verify(f)
	if err == nil || !strings.Contains(err.Error(), "not in the function") {
		t.Fatalf("Verify = %v, want a use of a value not in the function", err)
	}
}

// TestClaimName: only FreshName's own form, t<digits>, reserves a name.
func TestClaimName(t *testing.T) {
	for _, tc := range []struct {
		name string
		next string
	}{
		{"t12", "t13"},
		{"t12x", "t0"},
		{"t+3", "t0"},
		{"x7", "t0"},
	} {
		f := NewModule().NewFunc("f", I64)
		f.ClaimName(tc.name)
		if got := f.FreshName(); got != tc.next {
			t.Errorf("after ClaimName(%q), FreshName() = %q, want %q", tc.name, got, tc.next)
		}
	}
}
