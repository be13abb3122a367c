package alias

import (
	"testing"

	"idemproc/internal/ir"
)

func valueByName(f *ir.Func, name string) *ir.Value {
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}

const aliasSrc = `
global @g [4]
global @h [4]

func @f(i64 %p, i64 %q) i64 {
e:
  %a = alloca 4
  %b = alloca 4
  %ga = global @g
  %ha = global @h
  %a1 = add %a, 1
  %a1b = add %a, 1
  %a2 = add %a, 2
  %gi = add %ga, %q
  %x = load %p
  ret %x
}
`

func TestBasicAliasFacts(t *testing.T) {
	m := ir.MustParse(aliasSrc)
	f := m.Func("f")
	ai := Compute(f)

	v := func(n string) *ir.Value { return valueByName(f, n) }
	cases := []struct {
		a, b      string
		may, must bool
	}{
		{"a", "b", false, false},   // distinct allocas
		{"a", "ga", false, false},  // alloca vs global
		{"a1", "a1b", true, true},  // same alloca, same offset
		{"a1", "a2", false, false}, // same alloca, different offsets
		{"ga", "ha", false, false}, // distinct globals
		{"ga", "p", true, false},   // global vs pointer param
		{"p", "q", true, false},    // two pointer params
		{"gi", "ga", true, false},  // unknown index in same global
		{"gi", "ha", false, false}, // unknown index, different global
		{"a", "p", false, false},   // non-escaped alloca vs param
		{"a1", "a", false, false},  // same base, offsets 1 vs 0
		{"p", "p", true, true},     // identical value
	}
	for _, c := range cases {
		if got := ai.MayAlias(v(c.a), v(c.b)); got != c.may {
			t.Errorf("MayAlias(%s, %s) = %v, want %v", c.a, c.b, got, c.may)
		}
		if got := ai.MustAlias(v(c.a), v(c.b)); got != c.must {
			t.Errorf("MustAlias(%s, %s) = %v, want %v", c.a, c.b, got, c.must)
		}
	}
}

func TestEscapeViaStore(t *testing.T) {
	src := `
global @slot [1]

func @f() i64 {
e:
  %a = alloca 2
  %s = global @slot
  store %s, %a      ; address of %a escapes into memory
  %x = load %a
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	ai := Compute(f)
	a := valueByName(f, "a")
	if !ai.Escaped(a) {
		t.Fatal("alloca stored to memory must be escaped")
	}
	// An unknown pointer (loaded from memory) may now alias it.
	if ai.ClassOf(a) != StorageMemory {
		t.Fatal("escaped alloca should classify as memory")
	}
}

func TestEscapeViaCallAndRet(t *testing.T) {
	src := `
func @g(i64 %p) i64 {
e:
  ret %p
}

func @f() i64 {
e:
  %a = alloca 1
  %b = alloca 1
  %a1 = add %a, 0
  %r = call @g(%a1)
  ret %r
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	ai := Compute(f)
	if !ai.Escaped(valueByName(f, "a")) {
		t.Fatal("alloca passed to call (via derived value) must escape")
	}
	if ai.Escaped(valueByName(f, "b")) {
		t.Fatal("unused alloca must not escape")
	}
	if ai.ClassOf(valueByName(f, "b")) != StorageLocalStack {
		t.Fatal("non-escaped alloca should classify as local stack")
	}
}

func TestUnknownVsLocal(t *testing.T) {
	src := `
func @f(i64 %p) i64 {
e:
  %a = alloca 1
  %up = load %p      ; a pointer loaded from memory: unknown
  %x = load %up
  %y = load %a
  %r = add %x, %y
  ret %r
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	ai := Compute(f)
	up, a := valueByName(f, "up"), valueByName(f, "a")
	if ai.MayAlias(up, a) {
		t.Fatal("unknown pointer must not alias non-escaped alloca")
	}
	if !ai.MayAlias(up, valueByName(f, "p")) {
		t.Fatal("unknown pointer may alias params")
	}
	if ai.MustAlias(up, up) != true {
		t.Fatal("identical values must alias")
	}
}

func TestPhiMerge(t *testing.T) {
	src := `
global @g [8]

func @f(i64 %c) i64 {
e:
  %ga = global @g
  %g1 = add %ga, 1
  %g2 = add %ga, 2
  condbr %c, a, b
a:
  br j
b:
  br j
j:
  %p = phi [a: %g1], [b: %g2]
  %x = load %p
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	ai := Compute(f)
	p := valueByName(f, "p")
	l := ai.LocOf(p)
	if l.Kind != BaseGlobal || l.Global != "g" {
		t.Fatalf("φ of two offsets into @g should keep base g, got kind=%d", l.Kind)
	}
	if l.KnownOff {
		t.Fatal("differing offsets must lose offset precision")
	}
	// May alias both, must alias neither.
	if !ai.MayAlias(p, valueByName(f, "g1")) || ai.MustAlias(p, valueByName(f, "g1")) {
		t.Fatal("φ alias facts wrong")
	}
}

func TestStorageClassString(t *testing.T) {
	if StorageLocalStack.String() != "local-stack" || StorageMemory.String() != "memory" {
		t.Fatal("StorageClass strings wrong")
	}
}

// TestQuickAliasProperties: MustAlias implies MayAlias; both relations
// are symmetric — checked over all value pairs of a representative
// function.
func TestQuickAliasProperties(t *testing.T) {
	src := `
global @g [8]
global @h [4]

func @f(i64 %p, i64 %q, i64 %i) i64 {
e:
  %a = alloca 4
  %b = alloca 2
  %ga = global @g
  %ha = global @h
  %g1 = add %ga, 1
  %gi = add %ga, %i
  %a1 = add %a, 1
  %ai = add %a, %i
  %pi = add %p, %i
  %x = load %p
  %y = load %x
  %sum = add %y, %i
  ret %sum
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	ai := Compute(f)
	var addrs []*ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Type == ir.I64 {
				addrs = append(addrs, v)
			}
		}
	}
	for _, x := range addrs {
		for _, y := range addrs {
			may, mayR := ai.MayAlias(x, y), ai.MayAlias(y, x)
			must, mustR := ai.MustAlias(x, y), ai.MustAlias(y, x)
			if may != mayR {
				t.Fatalf("MayAlias(%s,%s) not symmetric", x, y)
			}
			if must != mustR {
				t.Fatalf("MustAlias(%s,%s) not symmetric", x, y)
			}
			if must && !may {
				t.Fatalf("MustAlias(%s,%s) without MayAlias", x, y)
			}
		}
		if !ai.MustAlias(x, x) {
			t.Fatalf("MustAlias(%s,%s) must be reflexive", x, x)
		}
	}
}

// TestValueMadeAfterCompute: a value made after Compute gets the answers
// a fresh Compute gives it.
func TestValueMadeAfterCompute(t *testing.T) {
	m := ir.MustParse(aliasSrc)
	f := m.Func("f")
	ai := Compute(f)
	three := f.NewValue(ir.OpConst, ir.I64)
	three.ConstInt = 3
	a3 := f.NewValue(ir.OpAdd, ir.I64, valueByName(f, "a"), three)
	ret := f.Entry().Terminator()
	f.Entry().InsertBefore(three, ret)
	f.Entry().InsertBefore(a3, ret)
	fresh := Compute(f)
	if got, want := ai.LocOf(a3), fresh.LocOf(a3); got != want {
		t.Fatalf("LocOf(a3) = %+v, fresh Compute gives %+v", got, want)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Type != ir.I64 {
				continue
			}
			if got, want := ai.MayAlias(a3, v), fresh.MayAlias(a3, v); got != want {
				t.Errorf("MayAlias(a3, %s) = %v, fresh Compute gives %v", v, got, want)
			}
		}
	}
}
