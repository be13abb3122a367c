// Pins the RouteKey mirror against the real cache-key derivation: for
// every request shape the front tier routes, RouteKey must equal the
// buildcache.Key that doCompile/doSimulate's build actually uses —
// otherwise the fleet still answers correctly (any replica can compute
// any key) but cache partitioning quietly degrades.
package server

import (
	"testing"

	"idemproc/internal/buildcache"
)

func TestRouteKeyMatchesCacheKey(t *testing.T) {
	f := false
	compiles := []*CompileRequest{
		{Workload: "mcf"},
		{Workload: "bzip2", MemWords: 131072},
		{Workload: "milc", Options: &OptionsSpec{Idempotent: &f}},
		{Workload: "hmmer", Options: &OptionsSpec{Core: &CoreOptionsSpec{MaxRegionSize: 16}}},
		{Source: tinySource},
		{Source: tinySource, MemWords: 4096},
		{Source: tinySource, Options: &OptionsSpec{Core: &CoreOptionsSpec{RedElim: &f}}},
	}
	for i, req := range compiles {
		wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, nil)
		if he != nil {
			t.Fatalf("compile %d: resolve: %v", i, he)
		}
		want := buildcache.KeyOf(wk, req.Options.moduleOptions(true))
		if got := req.RouteKey(); got != want {
			t.Errorf("compile %d: RouteKey %+v != cache key %+v", i, got, want)
		}
	}

	simulates := []*SimulateRequest{
		{Workload: "mcf"},
		{Workload: "mcf", Scheme: "idem"},
		{Workload: "libquantum", Scheme: "dmr"},
		{Workload: "swaptions", Scheme: "cl", MemWords: 131072},
		{Source: tinySource, Args: []uint64{25}, Scheme: "idem"},
		{Source: tinySource, Args: []uint64{3}, Scheme: "tmr",
			Options: &OptionsSpec{Core: &CoreOptionsSpec{MaxRegionSize: 8}}},
	}
	for i, req := range simulates {
		wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, req.Args)
		if he != nil {
			t.Fatalf("simulate %d: resolve: %v", i, he)
		}
		want := buildcache.KeyOf(wk, req.buildOptions())
		if got := req.RouteKey(); got != want {
			t.Errorf("simulate %d: RouteKey %+v != cache key %+v", i, got, want)
		}
	}

	// Args never enter the key: two simulates differing only in args
	// share a compile.
	a := &SimulateRequest{Workload: "mcf", Args: []uint64{1}}
	b := &SimulateRequest{Workload: "mcf", Args: []uint64{999}}
	if a.RouteKey() != b.RouteKey() {
		t.Error("args changed the route key; they must not (compiles are arg-independent)")
	}
}
