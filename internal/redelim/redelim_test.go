package redelim

import (
	"testing"

	"idemproc/internal/alias"
	"idemproc/internal/ir"
)

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == op {
				n++
			}
		}
	}
	return n
}

// TestFig5Transform reproduces the paper's Figure 5:
//
//  1. mem[x] = a        1. mem[x] = a
//  2. b = mem[x]   →    2. b = a
//  3. mem[x] = c        3. mem[x] = c
//
// The antidependence 2→3 disappears because the load is forwarded;
// internal/core's TestFig5RemovesAntidep counts it before and after.
func TestFig5Transform(t *testing.T) {
	src := `
global @x [1]

func @f(i64 %a, i64 %c) i64 {
e:
  %xa = global @x
  store %xa, %a
  %b = load %xa
  store %xa, %c
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 1 {
		t.Fatalf("ForwardedStores = %d, want 1", st.ForwardedStores)
	}
	if countOps(f, ir.OpLoad) != 0 {
		t.Fatal("load should have been forwarded away")
	}

	// Semantics preserved.
	in := ir.NewInterp(m, 64)
	got, err := in.Run("f", 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("f(5,9) = %d, want 5", got)
	}
}

func TestMayAliasBlocksForwarding(t *testing.T) {
	// A may-alias (not must) intervening store kills the fact; forwarding
	// across it would be unsound.
	src := `
global @x [4]

func @f(i64 %p, i64 %i) i64 {
e:
  %xa = global @x
  store %xa, 1
  %xi = add %xa, %i
  store %xi, 2       ; may-alias x[0]
  %b = load %xa      ; must not be forwarded from the first store
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 0 {
		t.Fatalf("unsound forwarding across may-alias store (%d forwarded)", st.ForwardedStores)
	}
	if countOps(f, ir.OpLoad) != 1 {
		t.Fatal("load must survive")
	}
}

func TestCallKillsFacts(t *testing.T) {
	src := `
global @x [1]

func @g() void {
e:
  %xa = global @x
  store %xa, 99
  ret
}

func @f() i64 {
e:
  %xa = global @x
  store %xa, 1
  call @g()
  %b = load %xa
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 0 {
		t.Fatal("forwarding across a call is unsound for globals")
	}
	in := ir.NewInterp(m, 64)
	got, err := in.Run("f")
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("f() = %d, want 99", got)
	}
}

func TestCallKeepsLocalFacts(t *testing.T) {
	// Facts about non-escaped allocas survive calls.
	src := `
func @g() void {
e:
  ret
}

func @f() i64 {
e:
  %a = alloca 1
  store %a, 7
  call @g()
  %b = load %a
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 1 {
		t.Fatalf("local-slot fact should survive the call; forwarded=%d", st.ForwardedStores)
	}
}

func TestLoadLoadForwarding(t *testing.T) {
	src := `
global @x [1]

func @f() i64 {
e:
  %xa = global @x
  %a = load %xa
  %b = load %xa
  %r = add %a, %b
  ret %r
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedLoads != 1 {
		t.Fatalf("ForwardedLoads = %d, want 1", st.ForwardedLoads)
	}
	if countOps(f, ir.OpLoad) != 1 {
		t.Fatal("second load should be gone")
	}
}

func TestForwardingAcrossSinglePredEdge(t *testing.T) {
	src := `
global @x [1]

func @f(i64 %c) i64 {
e:
  %xa = global @x
  store %xa, 3
  br next
next:
  %b = load %xa
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 1 {
		t.Fatalf("fact should cross a single-pred edge; forwarded=%d", st.ForwardedStores)
	}
}

func TestNoForwardingAcrossJoin(t *testing.T) {
	// Conservative: facts die at join points.
	src := `
global @x [1]

func @f(i64 %c) i64 {
e:
  %xa = global @x
  store %xa, 3
  condbr %c, a, b
a:
  br j
b:
  store %xa, 4
  br j
j:
  %v = load %xa
  ret %v
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 0 {
		t.Fatal("forwarding into a join is not performed by this pass")
	}
	for _, args := range [][]ir.Word{{1}, {0}} {
		in := ir.NewInterp(m, 64)
		got, err := in.Run("f", args...)
		if err != nil {
			t.Fatal(err)
		}
		want := ir.Word(3)
		if args[0] == 0 {
			want = 4
		}
		if got != want {
			t.Fatalf("f(%d) = %d, want %d", args[0], got, want)
		}
	}
}

func TestTypeMismatchNotForwarded(t *testing.T) {
	src := `
global @x [1]

func @f(f64 %a) i64 {
e:
  %xa = global @x
  store %xa, %a
  %b = load %xa     ; i64 load of an f64 store: bit reinterpretation
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.Func("f")
	st := Run(f, alias.Compute(f))
	if st.ForwardedStores != 0 {
		t.Fatal("cross-type forwarding must not happen")
	}
}
