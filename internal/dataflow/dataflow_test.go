package dataflow

import (
	"testing"

	"idemproc/internal/alias"
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

func storeIn(f *ir.Func, blockName string) *ir.Value {
	for _, b := range f.Blocks {
		if b.Name != blockName {
			continue
		}
		for _, v := range b.Instrs {
			if v.Op == ir.OpStore {
				return v
			}
		}
	}
	return nil
}

const warSrc = `
global @g [4]

func @f(i64 %n) i64 {
e:
  %ga = global @g
  %x = load %ga       ; read g[0]
  br next
next:
  %y = add %x, 1
  store %ga, %y       ; write g[0]: WAR with the load
  ret %y
}
`

func TestMemoryAntidepsSimple(t *testing.T) {
	m := ir.MustParse(warSrc)
	f := m.Func("f")
	ai := alias.Compute(f)
	reach := ComputeReach(f)
	deps := MemoryAntideps(f, ai, reach)
	if len(deps) != 1 {
		t.Fatalf("got %d antideps, want 1", len(deps))
	}
	d := deps[0]
	if d.Read != valueByName(f, "x") || d.Write != storeIn(f, "next") {
		t.Fatal("antidep endpoints wrong")
	}
	if !d.MustAliasPair {
		t.Fatal("same-address WAR should be must-alias")
	}
}

func TestNoAntidepWhenWriteBeforeRead(t *testing.T) {
	src := `
global @g [4]

func @f() i64 {
e:
  %ga = global @g
  store %ga, 5
  %x = load %ga
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	deps := MemoryAntideps(f, alias.Compute(f), ComputeReach(f))
	if len(deps) != 0 {
		t.Fatalf("store-then-load in straight line is RAW, not WAR; got %d antideps", len(deps))
	}
}

func TestLoopCarriedAntidep(t *testing.T) {
	// In a loop, a store earlier in the block than the load still forms a
	// WAR via the back edge (write of iteration i+1 follows read of i).
	src := `
global @g [4]

func @f(i64 %n) i64 {
e:
  %ga = global @g
  br l
l:
  %i = phi [e: 0], [l: %i2]
  store %ga, %i
  %x = load %ga
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	deps := MemoryAntideps(f, alias.Compute(f), ComputeReach(f))
	if len(deps) != 1 {
		t.Fatalf("got %d antideps, want 1 (loop-carried)", len(deps))
	}
}

func TestNoAliasNoAntidep(t *testing.T) {
	src := `
global @g [4]
global @h [4]

func @f() i64 {
e:
  %ga = global @g
  %ha = global @h
  %x = load %ga
  store %ha, 1
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	deps := MemoryAntideps(f, alias.Compute(f), ComputeReach(f))
	if len(deps) != 0 {
		t.Fatalf("got %d antideps across distinct globals, want 0", len(deps))
	}
}

func TestReachQueries(t *testing.T) {
	src := `
func @f(i64 %c) i64 {
e:
  %a = add %c, 1
  condbr %c, t, u
t:
  %b = add %a, 2
  br j
u:
  %d = add %a, 3
  br j
j:
  %r = phi [t: %b], [u: %d]
  ret %r
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	reach := ComputeReach(f)
	v := func(n string) *ir.Value { return valueByName(f, n) }
	if !reach.Reaches(v("a"), v("b")) || !reach.Reaches(v("a"), v("r")) {
		t.Fatal("forward reachability missing")
	}
	if reach.Reaches(v("b"), v("d")) || reach.Reaches(v("d"), v("b")) {
		t.Fatal("sibling branches must not reach each other")
	}
	if reach.Reaches(v("r"), v("a")) {
		t.Fatal("no backward reachability in a DAG")
	}
	if reach.Reaches(v("a"), v("a")) {
		t.Fatal("acyclic self-reachability should be false")
	}
}

func TestReachSelfInLoop(t *testing.T) {
	src := `
func @f(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %i2
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	reach := ComputeReach(f)
	i2 := valueByName(f, "i2")
	if !reach.Reaches(i2, i2) {
		t.Fatal("instruction in a loop must reach itself via the back edge")
	}
}

func TestEscapedAllocaAntidep(t *testing.T) {
	// A pointer loaded from memory may point into an escaped alloca, so a
	// store through it forms an antidep with a load of the alloca.
	src := `
global @cell [1]

func @f() i64 {
e:
  %a = alloca 1
  %cp = global @cell
  store %cp, %a
  %x = load %a
  %up = load %cp
  store %up, 9
  ret %x
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	deps := MemoryAntideps(f, alias.Compute(f), ComputeReach(f))
	found := false
	for _, d := range deps {
		if d.Read == valueByName(f, "x") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing antidep between alloca load and unknown-pointer store")
	}
}
