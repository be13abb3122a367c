package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"idemproc/internal/ir"
)

// TestCheckRejectsWeakenedCuts: removing any multicut-placed cut from a
// decomposition with antidependences must either fail Check or leave all
// antideps separated by the remaining cuts (over-approximation is
// allowed, but most removals must be caught).
func TestCheckRejectsWeakenedCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	caught, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		src := randomProgram(rng)
		m := ir.MustParse(src)
		res, err := Construct(m.Func("f"), DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Antideps) == 0 {
			continue
		}
		// Remove each cut in turn.
		var cutList []*ir.Value
		for v := range res.Cuts {
			cutList = append(cutList, v)
		}
		for _, victim := range cutList {
			weaker := map[*ir.Value]bool{}
			for v := range res.Cuts {
				if v != victim {
					weaker[v] = true
				}
			}
			total++
			trial := &Result{F: res.F, Cuts: weaker, Regions: BuildInstrGraph(res.F).Materialize(weaker)}
			if Check(trial) != nil {
				caught++
			}
		}
	}
	if total == 0 {
		t.Skip("no antidependences generated")
	}
	if caught == 0 {
		t.Fatalf("Check never rejected a weakened decomposition (%d tries)", total)
	}
}

// TestConstructDeterministic: two constructions of the same source agree
// exactly (the paper's results must be reproducible).
func TestConstructDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		src := randomProgram(rng)
		a := ir.MustParse(src)
		b := ir.MustParse(src)
		ra, err := Construct(a.Func("f"), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Construct(b.Func("f"), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Cuts) != len(rb.Cuts) || len(ra.Regions) != len(rb.Regions) {
			t.Fatalf("trial %d: nondeterministic construction: %d/%d cuts, %d/%d regions",
				trial, len(ra.Cuts), len(rb.Cuts), len(ra.Regions), len(rb.Regions))
		}
		if ir.FuncString(a.Func("f")) != ir.FuncString(b.Func("f")) {
			t.Fatalf("trial %d: transformed IR differs", trial)
		}
	}
}

// TestQuickRegionCoverage: for arbitrary list sizes, every instruction of
// list_push stays covered and the decomposition verifies.
func TestQuickRegionCoverage(t *testing.T) {
	prop := func(seed int64) bool {
		m := ir.MustParse(listPushSrc)
		res, err := Construct(m.Func("list_push"), DefaultOptions())
		if err != nil {
			return false
		}
		g := BuildInstrGraph(res.F)
		covered := map[*ir.Value]bool{}
		for _, r := range res.Regions {
			for _, v := range r.Instrs {
				covered[v] = true
			}
		}
		for _, v := range g.Instrs {
			if !covered[v] {
				return false
			}
		}
		return Check(res) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestRegionsHaveDistinctHeaders (decomposition condition 2 of §4.2.1).
func TestRegionsHaveDistinctHeaders(t *testing.T) {
	m := ir.MustParse(listPushSrc)
	res, err := Construct(m.Func("list_push"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*ir.Value]bool{}
	for _, r := range res.Regions {
		if seen[r.Header] {
			t.Fatalf("duplicate region header %s", r.Header.LongString())
		}
		seen[r.Header] = true
	}
}
