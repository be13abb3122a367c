package core

import (
	"slices"
	"testing"

	"idemproc/internal/alias"
	"idemproc/internal/ir"
	"idemproc/internal/workloads"
)

// antidepsOf parses src and extracts the memory antidependences of its
// function @f as placement sees them.
func antidepsOf(src string) (*ir.Func, []Antidep) {
	f := ir.MustParse(src).Func("f")
	return f, BuildInstrGraph(f).memoryAntideps(alias.Compute(f))
}

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

// storesIn returns the stores of the named block, in order.
func storesIn(f *ir.Func, blockName string) []*ir.Value {
	var out []*ir.Value
	for _, b := range f.Blocks {
		if b.Name != blockName {
			continue
		}
		for _, v := range b.Instrs {
			if v.Op == ir.OpStore {
				out = append(out, v)
			}
		}
	}
	return out
}

func TestMemoryAntidepsSimple(t *testing.T) {
	f, deps := antidepsOf(`
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
`)
	if len(deps) != 1 {
		t.Fatalf("got %d antideps, want 1", len(deps))
	}
	d := deps[0]
	if d.Read != valueByName(f, "x") || d.Write != storesIn(f, "next")[0] {
		t.Fatal("antidep endpoints wrong")
	}
	if !d.MustAliasPair {
		t.Fatal("same-address WAR should be must-alias")
	}
}

func TestNoAntidepWhenWriteBeforeRead(t *testing.T) {
	_, deps := antidepsOf(`
global @g [4]

func @f() i64 {
e:
  %ga = global @g
  store %ga, 5
  %x = load %ga
  ret %x
}
`)
	if len(deps) != 0 {
		t.Fatalf("store-then-load in straight line is RAW, not WAR; got %d antideps", len(deps))
	}
}

func TestLoopCarriedAntidep(t *testing.T) {
	// In a loop, a store earlier in the block than the load still forms a
	// WAR via the back edge (write of iteration i+1 follows read of i).
	_, deps := antidepsOf(`
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
`)
	if len(deps) != 1 {
		t.Fatalf("got %d antideps, want 1 (loop-carried)", len(deps))
	}
}

func TestNoAliasNoAntidep(t *testing.T) {
	_, deps := antidepsOf(`
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
`)
	if len(deps) != 0 {
		t.Fatalf("got %d antideps across distinct globals, want 0", len(deps))
	}
}

// TestAntidepsFollowForwardPaths: a load pairs with a store in a later
// block and with a later store of its own block, but not with a store on
// a sibling branch, nor with a store that only precedes it in a DAG.
func TestAntidepsFollowForwardPaths(t *testing.T) {
	f, deps := antidepsOf(`
global @g [4]

func @f(i64 %c) i64 {
e:
  %ga = global @g
  %a = load %ga
  condbr %c, t, u
t:
  %b = load %ga
  store %ga, 1
  br j
u:
  %d = load %ga
  store %ga, 2
  br j
j:
  %r = load %ga
  ret %r
}
`)
	v := func(n string) *ir.Value { return valueByName(f, n) }
	st, su := storesIn(f, "t")[0], storesIn(f, "u")[0]
	want := []Antidep{
		{Read: v("a"), Write: st, MustAliasPair: true},
		{Read: v("a"), Write: su, MustAliasPair: true},
		{Read: v("b"), Write: st, MustAliasPair: true},
		{Read: v("d"), Write: su, MustAliasPair: true},
	}
	if !slices.Equal(deps, want) {
		t.Fatalf("antideps %v, want %v", deps, want)
	}
}

// TestLoopCarriedAntidepThroughLatch: a store earlier in the load's own
// block pairs with the load when a cycle through another block leads
// back to it, but not when the earlier store sits outside the loop.
func TestLoopCarriedAntidepThroughLatch(t *testing.T) {
	f, deps := antidepsOf(`
global @g [4]

func @f(i64 %n) i64 {
e:
  %ga = global @g
  store %ga, 7
  br l
l:
  %i = phi [e: 0], [m: %i2]
  store %ga, %i
  %x = load %ga
  br m
m:
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %x
}
`)
	want := []Antidep{{Read: valueByName(f, "x"), Write: storesIn(f, "l")[0], MustAliasPair: true}}
	if !slices.Equal(deps, want) {
		t.Fatalf("antideps %v, want %v", deps, want)
	}
}

func TestEscapedAllocaAntidep(t *testing.T) {
	// A pointer loaded from memory may point into an escaped alloca, so a
	// store through it forms an antidep with a load of the alloca.
	f, deps := antidepsOf(`
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
`)
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

// TestFig5RemovesAntidep: the paper's Figure 5 program keeps its one
// antidependence (the load, then the second store) without redundancy
// elimination, and loses it once the load is forwarded.
func TestFig5RemovesAntidep(t *testing.T) {
	const src = `
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
	for _, tc := range []struct {
		redElim bool
		want    int
	}{{false, 1}, {true, 0}} {
		opts := DefaultOptions()
		opts.RedElim = tc.redElim
		_, res := constructSrc(t, src, "f", opts)
		if len(res.Antideps) != tc.want {
			t.Errorf("RedElim %v: %d antideps, want %d", tc.redElim, len(res.Antideps), tc.want)
		}
	}
}

// TestConstructAnalysesMatchFreshDerivation pins what Construct's final
// check rests on: the analyses of its last placement round equal the ones
// Check derives afresh from the function Construct returns, in order. It
// covers every function of every workload under the option sets of
// internal/verify's workload matrix.
func TestConstructAnalysesMatchFreshDerivation(t *testing.T) {
	def := DefaultOptions()
	with := func(f func(*Options)) Options { o := def; f(&o); return o }
	sets := []struct {
		name      string
		opts      Options
		pureCalls bool
	}{
		{"default", def, false},
		{"purecalls", def, true},
		{"nounroll", with(func(o *Options) { o.UnrollLoops = false }), false},
		{"maxregion8", with(func(o *Options) { o.MaxRegionSize = 8 }), false},
		{"maxregion16", with(func(o *Options) { o.MaxRegionSize = 16 }), false},
		{"maxregion32", with(func(o *Options) { o.MaxRegionSize = 32 }), false},
		{"maxregion64", with(func(o *Options) { o.MaxRegionSize = 64 }), false},
		{"noloopheur", with(func(o *Options) { o.LoopHeuristic = false }), false},
		{"redelim-off", with(func(o *Options) { o.RedElim = false }), false},
	}
	for _, set := range sets {
		for _, w := range workloads.All() {
			m := w.Module()
			opts := set.opts
			if set.pureCalls {
				opts.PureFuncs = PureFunctions(m)
			}
			for _, f := range m.Funcs {
				if opts.PureFuncs[f.Name] {
					continue
				}
				res, err := Construct(f, opts)
				if err != nil {
					t.Fatalf("%s/%s/@%s: %v", set.name, w.Name, f.Name, err)
				}
				g, info, deps := analyze(res.F)
				if !slices.Equal(res.Antideps, deps) {
					t.Errorf("%s/%s/@%s: %d antideps, fresh derivation has %d or differs in order",
						set.name, w.Name, f.Name, len(res.Antideps), len(deps))
				}
				fresh := selfDepLoops(g, info)
				same := len(res.SelfDep) == len(fresh)
				for i := 0; same && i < len(fresh); i++ {
					same = res.SelfDep[i].Header == fresh[i].loop.Header &&
						slices.Equal(res.SelfDep[i].Phis, fresh[i].phis)
				}
				if !same {
					t.Errorf("%s/%s/@%s: self-dependent loops differ from a fresh derivation",
						set.name, w.Name, f.Name)
				}
			}
		}
	}
}
