package multicut

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustSolve fails the test on a Solve error; the happy-path tests use it.
func mustSolve(t *testing.T, p Problem) []int {
	t.Helper()
	got, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve(%v): %v", p.Sets, err)
	}
	return got
}

func TestSolveTrivial(t *testing.T) {
	got := mustSolve(t, Problem{Sets: [][]int{{1, 2}, {2, 3}}})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Solve = %v, want [2]", got)
	}
}

func TestSolveDisjoint(t *testing.T) {
	got := mustSolve(t, Problem{Sets: [][]int{{1}, {2}, {3}}})
	if len(got) != 3 {
		t.Fatalf("disjoint singletons need 3 picks, got %v", got)
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	if got := mustSolve(t, Problem{}); len(got) != 0 {
		t.Fatalf("no sets → no cuts, got %v", got)
	}
}

func TestSolveErrorsOnEmptySet(t *testing.T) {
	_, err := Solve(Problem{Sets: [][]int{{1}, {}}})
	if !errors.Is(err, ErrEmptySet) {
		t.Fatalf("Solve with empty set: err = %v, want ErrEmptySet", err)
	}
}

func TestExactErrorsOnEmptySet(t *testing.T) {
	_, err := Exact([][]int{{}})
	if !errors.Is(err, ErrEmptySet) {
		t.Fatalf("Exact with empty set: err = %v, want ErrEmptySet", err)
	}
}

func TestLoopHeuristicPrefersShallow(t *testing.T) {
	// Node 10 (depth 2) covers both sets; nodes 1 and 2 (depth 0) cover
	// one each. Plain greedy picks 10; the loop heuristic avoids the deep
	// node even at the cost of more cuts.
	sets := [][]int{{10, 1}, {10, 2}}
	depth := make([]int, 11)
	depth[10] = 2

	plain := mustSolve(t, Problem{Sets: sets, Depth: depth})
	if len(plain) != 1 || plain[0] != 10 {
		t.Fatalf("plain greedy = %v, want [10]", plain)
	}
	heur := mustSolve(t, Problem{Sets: sets, Depth: depth, UseLoopHeuristic: true})
	if len(heur) != 2 {
		t.Fatalf("loop heuristic = %v, want the two depth-0 nodes", heur)
	}
	for _, n := range heur {
		if n == 10 {
			t.Fatalf("loop heuristic picked the deep node: %v", heur)
		}
	}
}

func TestExactSmall(t *testing.T) {
	sets := [][]int{{1, 2}, {2, 3}, {3, 4}}
	got, err := Exact(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Exact = %v, want size 2 (e.g. {2,3})", got)
	}
	if !Covers(sets, got) {
		t.Fatalf("Exact returned a non-cover: %v", got)
	}
}

func TestCovers(t *testing.T) {
	sets := [][]int{{1, 2}, {3}}
	if !Covers(sets, []int{2, 3}) {
		t.Fatal("2,3 covers")
	}
	if Covers(sets, []int{1}) {
		t.Fatal("1 alone does not cover")
	}
}

// TestGreedyIsValidAndNearOptimal: on random instances the greedy result
// always covers, and is within the ln(m)+1 guarantee of the optimum.
func TestGreedyIsValidAndNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nNodes := 3 + rng.Intn(6)
		nSets := 1 + rng.Intn(5)
		sets := make([][]int, nSets)
		for i := range sets {
			size := 1 + rng.Intn(3)
			seen := map[int]bool{}
			for len(sets[i]) < size {
				n := rng.Intn(nNodes)
				if !seen[n] {
					seen[n] = true
					sets[i] = append(sets[i], n)
				}
			}
		}
		greedy := mustSolve(t, Problem{Sets: sets})
		if !Covers(sets, greedy) {
			t.Fatalf("trial %d: greedy %v does not cover %v", trial, greedy, sets)
		}
		exact, err := Exact(sets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Harmonic bound H(maxCover) ≤ ~2.5 for these sizes; assert a
		// loose factor of 3.
		if len(greedy) > 3*len(exact) {
			t.Fatalf("trial %d: greedy %d vs optimal %d", trial, len(greedy), len(exact))
		}
	}
}

// Property: Solve is deterministic.
func TestQuickDeterminism(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSets := 1 + rng.Intn(4)
		sets := make([][]int, nSets)
		for i := range sets {
			for j := 0; j <= rng.Intn(3); j++ {
				sets[i] = append(sets[i], rng.Intn(8))
			}
		}
		a, errA := Solve(Problem{Sets: sets})
		b, errB := Solve(Problem{Sets: sets})
		if (errA == nil) != (errB == nil) {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
