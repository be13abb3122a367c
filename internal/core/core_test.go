package core

import (
	"fmt"
	"strings"
	"testing"

	"idemproc/internal/ir"
)

// listPushSrc is the paper's running example (Fig. 1): push an element
// onto a bounded list. The increment of list->size on the taken path is
// the semantic clobber antidependence that forces a region boundary.
//
// Layout: list[0] = size, list[1] = capacity, list[2..] = data.
const listPushSrc = `
global @the_list [18] = {0, 16}

func @list_push(i64 %list, i64 %e) void {
b1:
  %size = load %list          ; S1: read list->size (region input)
  %cap1 = add %list, 1
  %cap = load %cap1           ; S2: read list->capacity
  %full = ge %size, %cap
  condbr %full, b3, b2
b2:
  %base = add %list, 2
  %slot = add %base, %size
  store %slot, %e             ; S9: write data slot
  %newsize = add %size, 1
  store %list, %newsize       ; S10: write list->size — clobbers S1's read
  br b3
b3:
  ret
}
`

func constructSrc(t *testing.T, src, fn string, opts Options) (*ir.Module, *Result) {
	t.Helper()
	m := ir.MustParse(src)
	f := m.Func(fn)
	res, err := Construct(f, opts)
	if err != nil {
		t.Fatalf("Construct: %v\n%s", err, ir.FuncString(f))
	}
	return m, res
}

func TestListPushExample(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())

	if len(res.Antideps) < 2 {
		t.Fatalf("expected ≥2 semantic antidependences (S1→S10 and friends), got %d", len(res.Antideps))
	}
	// A single cut covers every antidependence (the paper: "it is
	// possible to place a single cut that cuts both antidependences").
	if res.Stats.CutsFromMulticut != 1 {
		t.Fatalf("multicut cuts = %d, want 1\n%s", res.Stats.CutsFromMulticut, DumpRegions(res))
	}
	// The cut must fall after both loads and before both stores: loads in
	// the entry region, stores in the cut region.
	for _, r := range res.Regions {
		hasLoad, hasStore := false, false
		for _, v := range r.Instrs {
			switch v.Op {
			case ir.OpLoad:
				hasLoad = true
			case ir.OpStore:
				hasStore = true
			}
		}
		if hasLoad && hasStore {
			t.Fatalf("a region contains both the reads and the writes\n%s", DumpRegions(res))
		}
	}
	// Two regions: the entry region (both paths through the branch share
	// the entry, §2.3) and the region opened by the cut.
	if len(res.Regions) != 2 {
		t.Fatalf("regions = %d, want 2\n%s", len(res.Regions), DumpRegions(res))
	}
}

func TestListPushSemanticsPreserved(t *testing.T) {
	// Execute pushes through the interpreter before and after
	// construction; final memory-visible behaviour must match.
	run := func(m *ir.Module) []ir.Word {
		in := ir.NewInterp(m, 256)
		base := ir.Word(in.GlobalAddr("the_list"))
		for e := 0; e < 5; e++ {
			if _, err := in.Run("list_push", base, ir.Word(e*7)); err != nil {
				t.Fatal(err)
			}
		}
		out := []ir.Word{in.Mem[base]}
		for i := 0; i < 5; i++ {
			out = append(out, in.Mem[int(base)+2+i])
		}
		return out
	}
	orig := run(ir.MustParse(listPushSrc))
	m2 := ir.MustParse(listPushSrc)
	if _, err := Construct(m2.Func("list_push"), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	got := run(m2)
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("construction changed semantics at %d: %v vs %v", i, got, orig)
		}
	}
	if orig[0] != 5 || orig[3] != 14 {
		t.Fatalf("baseline behaviour wrong: %v", orig)
	}
}

func TestRetSplitWhenNoCuts(t *testing.T) {
	// A function with no memory antidependences gets the §5 split so the
	// calling convention can reuse parameter registers.
	src := `
func @pure(i64 %a, i64 %b) i64 {
e:
  %x = mul %a, %b
  %y = add %x, 3
  ret %y
}
`
	_, res := constructSrc(t, src, "pure", DefaultOptions())
	if res.Stats.CutsFromRetSplit != 1 {
		t.Fatalf("ret-split cuts = %d, want 1", res.Stats.CutsFromRetSplit)
	}
	if len(res.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(res.Regions))
	}
}

func TestSelfDepCase1NoCuts(t *testing.T) {
	// A pure-register reduction loop: the induction φs are self-dependent
	// but the loop has no cuts — case 1.
	src := `
func @sum(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %acc2 = add %acc, %i
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`
	_, res := constructSrc(t, src, "sum", DefaultOptions())
	if len(res.SelfDep) == 0 {
		t.Fatal("self-dependent φs not detected")
	}
	for _, sd := range res.SelfDep {
		if sd.Case != SelfDepNoCuts {
			t.Fatalf("case = %v, want no-cuts", sd.Case)
		}
	}
	if res.Stats.CutsFromSelfDep != 0 {
		t.Fatal("no self-dep cuts should be needed")
	}
}

func TestSelfDepCase3GetsResolved(t *testing.T) {
	// A loop with a memory clobber (store to a global accumulator slot)
	// forces a cut inside the loop; the induction φ then needs case 2,
	// via unroll or inserted cuts. Either way Check must pass.
	src := `
global @hist [64]

func @hist_update(i64 %n) void {
e:
  %h = global @hist
  br l
l:
  %i = phi [e: 0], [l2: %i2]
  %slot = rem %i, 64
  %p = add %h, %slot
  %old = load %p
  %new = add %old, 1
  store %p, %new
  br l2
l2:
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret
}
`
	for _, unroll := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UnrollLoops = unroll
		m := ir.MustParse(src)
		f := m.Func("hist_update")
		res, err := Construct(f, opts)
		if err != nil {
			t.Fatalf("unroll=%v: %v\n%s", unroll, err, ir.FuncString(f))
		}
		for _, sd := range res.SelfDep {
			if sd.Case == SelfDepInsertedCuts {
				t.Fatalf("unroll=%v: loop left in unresolved case 3", unroll)
			}
		}
		if unroll && res.Stats.LoopsUnrolled != 1 {
			t.Fatalf("expected 1 unrolled loop, got %d", res.Stats.LoopsUnrolled)
		}
		// Semantics: hist[i%64] incremented n times total.
		in := ir.NewInterp(m, 256)
		if _, err := in.Run("hist_update", 130); err != nil {
			t.Fatal(err)
		}
		base := in.GlobalAddr("hist")
		total := ir.Word(0)
		for i := int64(0); i < 64; i++ {
			total += in.Mem[base+i]
		}
		if total != 130 {
			t.Fatalf("unroll=%v: histogram total = %d, want 130", unroll, total)
		}
	}
}

func TestCallsBecomeOwnRegions(t *testing.T) {
	src := `
global @g [1]

func @callee() void {
e:
  %ga = global @g
  store %ga, 1
  ret
}

func @caller() i64 {
e:
  %x = const 5
  call @callee()
  %y = add %x, 1
  ret %y
}
`
	m := ir.MustParse(src)
	f := m.Func("caller")
	res, err := Construct(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutsFromCalls != 2 {
		t.Fatalf("call cuts = %d, want 2 (before call, after call)", res.Stats.CutsFromCalls)
	}
	var call *ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpCall {
				call = v
			}
		}
	}
	if !res.Cuts[call] {
		t.Fatal("no cut before the call")
	}
}

func TestNoCutAtCallsOption(t *testing.T) {
	src := `
func @callee() void {
e:
  ret
}

func @caller() i64 {
e:
  call @callee()
  ret 1
}
`
	m := ir.MustParse(src)
	opts := DefaultOptions()
	opts.CutAtCalls = false
	res, err := Construct(m.Func("caller"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutsFromCalls != 0 {
		t.Fatal("CutAtCalls=false must not cut at calls")
	}
}

func TestLoopHeuristicKeepsCutsOutOfLoops(t *testing.T) {
	// An antidependence whose read is before the loop and write after:
	// candidates include loop-interior nodes; the heuristic must prefer a
	// depth-0 candidate.
	src := `
global @g [1]

func @f(i64 %n) i64 {
e:
  %ga = global @g
  %x = load %ga
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  %y = add %x, %i2
  store %ga, %y
  ret %y
}
`
	_, res := constructSrc(t, src, "f", DefaultOptions())
	for v := range res.Cuts {
		if v.Block.Name == "l" {
			t.Fatalf("cut placed inside loop despite depth-0 candidates\n%s", DumpRegions(res))
		}
	}
}

func TestMaterializeCoversEverything(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
	g := BuildInstrGraph(res.F)
	seen := map[*ir.Value]bool{}
	for _, r := range res.Regions {
		for _, v := range r.Instrs {
			seen[v] = true
		}
	}
	for _, v := range g.Instrs {
		if !seen[v] {
			t.Fatalf("instruction not in any region: %s", v.LongString())
		}
	}
}

func TestCheckDetectsMissingCut(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
	// Sabotage: remove all cuts. Check must now fail on the antideps.
	res.Cuts = map[*ir.Value]bool{}
	res.Regions = BuildInstrGraph(res.F).Materialize(res.Cuts)
	if err := Check(res); err == nil {
		t.Fatal("Check accepted a cut-free decomposition with antidependences")
	}
}

// TestCheckNamesFirstUncovered: with several instructions uncovered, Check
// names the first one in program order, every time.
func TestCheckNamesFirstUncovered(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
	res.Regions = nil
	want := "instruction not covered by any region: " + firstReal(res.F.Entry()).LongString()
	for i := 0; i < 20; i++ {
		if err := Check(res); err == nil || err.Error() != want {
			t.Fatalf("Check = %v, want %q", err, want)
		}
	}
}

func TestDumpRegionsRenders(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
	out := DumpRegions(res)
	if len(out) == 0 || res.Stats.RegionCount == 0 {
		t.Fatal("empty dump")
	}
}

func TestDotRegionsRenders(t *testing.T) {
	_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
	out := DotRegions(res)
	for _, want := range []string{"digraph", "cluster_0", "cut", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q", want)
		}
	}
}

// TestCheckRejectsValuesOutsideTheGraph: a region header, region member
// or cut that is not a real instruction of the function — a param, or
// another function's value whose ID is one of the function's — is an
// error naming that value, not a read of some position's flags.
func TestCheckRejectsValuesOutsideTheGraph(t *testing.T) {
	other := firstReal(ir.MustParse(listPushSrc).Func("list_push").Entry())
	for _, tc := range []struct {
		name     string
		stranger func(f *ir.Func) *ir.Value
		sameID   bool // the stranger's ID is the entry load's
	}{
		{"param", func(f *ir.Func) *ir.Value { return f.Params[0] }, false},
		{"other function's value", func(*ir.Func) *ir.Value { return other }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The entry load sits in the entry region only: in its place,
			// the stranger would cover position 0 if Check read positions
			// by value without testing identity.
			_, res := constructSrc(t, listPushSrc, "list_push", DefaultOptions())
			load, stranger := firstReal(res.F.Entry()), tc.stranger(res.F)
			if load.Op != ir.OpLoad || (stranger.ID == load.ID) != tc.sameID {
				t.Fatalf("entry instruction %s#%d, stranger %s#%d", load.LongString(), load.ID, stranger, stranger.ID)
			}
			var holders []*Region
			for _, r := range res.Regions {
				for i, v := range r.Instrs {
					if v == load {
						holders = append(holders, r)
						r.Instrs[i] = stranger
					}
				}
			}
			if len(holders) != 1 {
				t.Fatalf("entry load in %d regions, want 1", len(holders))
			}
			want := fmt.Sprintf("region %d lists %s, which is not a real instruction of the function", holders[0].Index, stranger.LongString())
			if err := Check(res); err == nil || err.Error() != want {
				t.Fatalf("Check = %v, want %q", err, want)
			}

			_, res = constructSrc(t, listPushSrc, "list_push", DefaultOptions())
			res.Regions[0].Header = tc.stranger(res.F)
			want = fmt.Sprintf("region 0 has header %s, which is not a real instruction of the function", res.Regions[0].Header.LongString())
			if err := Check(res); err == nil || err.Error() != want {
				t.Fatalf("Check = %v, want %q", err, want)
			}

			_, res = constructSrc(t, listPushSrc, "list_push", DefaultOptions())
			res.Cuts[tc.stranger(res.F)] = true
			want = fmt.Sprintf("cut at %s, which is not a real instruction of the function", tc.stranger(res.F).LongString())
			if err := Check(res); err == nil || err.Error() != want {
				t.Fatalf("Check = %v, want %q", err, want)
			}
		})
	}
}
