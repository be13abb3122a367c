// Package multicut solves the cut-placement problem at the heart of the
// paper's region construction (§4.2.1).
//
// Finding an optimal region decomposition reduces to minimum vertex
// multicut, which is NP-complete for general directed graphs. Following
// the paper, each antidependence pair (a, b) is associated with a single
// candidate set Sᵢ of vertices (by Lemma 1: the vertices that dominate b
// but not a, each of which lies on every a→b path), and a minimum hitting
// set over {Sᵢ} is approximated greedily. The greedy choice has a
// logarithmic approximation ratio (Cormen et al.).
//
// The §4.3 heuristic for dynamic behaviour is layered on top: candidates
// at the outermost loop nesting depth are preferred, with ties broken by
// the number of not-yet-hit sets a candidate intersects.
package multicut

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEmptySet reports a hitting-set instance containing an empty
// candidate set: no vertex choice can hit it, so the instance is
// unsolvable. Empty sets are reachable from user-written .idc input (an
// antidependence whose Lemma-1 candidate computation yields nothing), so
// solvers return this error instead of panicking; internal/core
// propagates it out of the compiler driver.
var ErrEmptySet = errors.New("multicut: empty candidate set is unhittable")

// ErrNoCover reports that no remaining candidate covers an unhit set — a
// defensive condition that cannot occur when every set is non-empty, kept
// as an error rather than a crash.
var ErrNoCover = errors.New("multicut: no candidate covers a remaining set")

// Problem is a hitting set instance. Nodes are non-negative ints; the
// caller numbers its instructions densely from 0.
type Problem struct {
	// Sets lists the candidate sets; every set must be non-empty, and a
	// valid solution intersects each one.
	Sets [][]int
	// Depth[n] gives node n's loop nesting depth (0 = outside loops).
	// A node past its end, or a nil Depth, has depth 0.
	Depth []int
	// UseLoopHeuristic enables the §4.3 outermost-depth-first choice.
	// When false, the plain greedy (most sets covered first) is used —
	// kept switchable for the ablation benchmark.
	UseLoopHeuristic bool
	// Balanced enables the paper's suggested future-work heuristic ("a
	// better heuristic most likely weighs both loop nesting depth and
	// intersecting set information more evenly"): candidates score
	// coverage discounted by 2^depth (a static estimate of execution
	// frequency) instead of depth-lexicographic choice. Overrides
	// UseLoopHeuristic.
	Balanced bool
}

// Solve returns an approximate minimum hitting set, deterministically
// (ties beyond the documented criteria break on smaller node id). An
// instance containing an empty candidate set is unsolvable and yields
// ErrEmptySet.
func Solve(p Problem) ([]int, error) {
	remaining := make([]bool, len(p.Sets))
	left := 0
	size := 0 // one past the largest node
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("%w (set %d of %d)", ErrEmptySet, i, len(p.Sets))
		}
		for _, n := range s {
			if n < 0 {
				return nil, fmt.Errorf("multicut: negative node %d in set %d", n, i)
			}
			size = max(size, n+1)
		}
		remaining[i] = true
		left++
	}
	// occurs[start[n]:start[n+1]] are the indices of the sets containing
	// node n, once per occurrence; nodes lists the nodes that occur, in
	// ascending order.
	start := make([]int, size+1)
	for _, s := range p.Sets {
		for _, n := range s {
			start[n+1]++
		}
	}
	var nodes []int
	for n := 0; n < size; n++ {
		if start[n+1] > 0 {
			nodes = append(nodes, n)
		}
		start[n+1] += start[n]
	}
	occurs := make([]int, start[size])
	fill := append([]int(nil), start[:size]...)
	for i, s := range p.Sets {
		for _, n := range s {
			occurs[fill[n]] = i
			fill[n]++
		}
	}

	depth := func(n int) int {
		if n < len(p.Depth) {
			return p.Depth[n]
		}
		return 0
	}

	var picked []int
	for left > 0 {
		best := -1
		bestDepth, bestCover := 0, -1
		for _, n := range nodes {
			cover := 0
			for _, si := range occurs[start[n]:start[n+1]] {
				if remaining[si] {
					cover++
				}
			}
			if cover == 0 {
				continue
			}
			d := depth(n)
			better := false
			switch {
			case best == -1:
				better = true
			case p.Balanced:
				// Coverage per unit of estimated dynamic frequency.
				score := float64(cover) / float64(int64(1)<<min(uint(d), 30))
				bestScore := float64(bestCover) / float64(int64(1)<<min(uint(bestDepth), 30))
				better = score > bestScore
			case p.UseLoopHeuristic:
				// Outermost depth first; then most coverage; then id.
				if d < bestDepth || (d == bestDepth && cover > bestCover) {
					better = true
				}
			default:
				better = cover > bestCover
			}
			if better {
				best, bestDepth, bestCover = n, d, cover
			}
		}
		if best == -1 {
			return nil, ErrNoCover
		}
		picked = append(picked, best)
		for _, si := range occurs[start[best]:start[best+1]] {
			if remaining[si] {
				remaining[si] = false
				left--
			}
		}
	}
	sort.Ints(picked)
	return picked, nil
}

// Exact returns a true minimum hitting set by exhaustive search over
// subset sizes. Exponential: for tests and tiny instances only. Like
// Solve, it yields ErrEmptySet on unsolvable instances.
func Exact(sets [][]int) ([]int, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	universe := map[int]bool{}
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("%w (set %d of %d)", ErrEmptySet, i, len(sets))
		}
		for _, n := range s {
			universe[n] = true
		}
	}
	nodes := make([]int, 0, len(universe))
	for n := range universe {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	hits := func(chosen []int) bool {
		for _, s := range sets {
			ok := false
			for _, n := range s {
				for _, c := range chosen {
					if n == c {
						ok = true
						break
					}
				}
				if ok {
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	var search func(start int, chosen []int, k int) []int
	search = func(start int, chosen []int, k int) []int {
		if len(chosen) == k {
			if hits(chosen) {
				out := make([]int, k)
				copy(out, chosen)
				return out
			}
			return nil
		}
		for i := start; i < len(nodes); i++ {
			if r := search(i+1, append(chosen, nodes[i]), k); r != nil {
				return r
			}
		}
		return nil
	}
	for k := 1; k <= len(nodes); k++ {
		if r := search(0, nil, k); r != nil {
			return r, nil
		}
	}
	// Unreachable for well-formed input: the full node set always hits.
	return nil, ErrNoCover
}

// Covers reports whether the chosen nodes hit every set — a checkable
// postcondition used by tests and the region verifier.
func Covers(sets [][]int, chosen []int) bool {
	in := map[int]bool{}
	for _, c := range chosen {
		in[c] = true
	}
	for _, s := range sets {
		ok := false
		for _, n := range s {
			if in[n] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
