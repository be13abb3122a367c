package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestEngineDeterministicAcrossWidths runs every driver on a serial and
// a three-wide engine and asserts byte-identical formatted output (the
// engine's core contract; the cmd/idembench golden test covers the same
// property end-to-end through the CLI). Each driver must also run
// exactly one simulation per (workload, configuration) unit: a split
// may neither drop nor repeat one.
func TestEngineDeterministicAcrossWidths(t *testing.T) {
	ws := subset(t, "blackscholes", "libquantum", "milc")
	n := int64(len(ws))
	drivers := []struct {
		name string
		sims int64
		run  func(e *Engine) (string, error)
	}{
		{"Table2", 0, func(e *Engine) (string, error) {
			rows, err := e.Table2(ws)
			return FormatTable2(rows), err
		}},
		{"Fig4", n, func(e *Engine) (string, error) { return formatted(e.Fig4(ws)) }},
		{"Fig8", n, func(e *Engine) (string, error) {
			rows, err := e.Fig8(ws)
			return FormatFig8(rows), err
		}},
		{"Fig9", 2 * n, func(e *Engine) (string, error) { return formatted(e.Fig9(ws)) }},
		{"Fig10", 2 * n, func(e *Engine) (string, error) { return formatted(e.Fig10(ws)) }},
		{"Fig12", 4 * n, func(e *Engine) (string, error) { return formatted(e.Fig12(ws)) }},
		{"Characteristics", 0, func(e *Engine) (string, error) {
			rows, err := e.Characteristics(ws)
			return FormatCharacteristics(rows), err
		}},
		{"AblationLoopHeuristic", 2 * n, func(e *Engine) (string, error) { return formattedAblation(e.AblationLoopHeuristic(ws)) }},
		{"AblationUnroll", 2 * n, func(e *Engine) (string, error) { return formattedAblation(e.AblationUnroll(ws)) }},
		{"AblationRedElim", 0, func(e *Engine) (string, error) { return formattedAblation(e.AblationRedElim(ws)) }},
		{"AblationRegalloc", 2 * n, func(e *Engine) (string, error) { return formattedAblation(e.AblationRegalloc(ws)) }},
		{"AblationPureCalls", 2 * n, func(e *Engine) (string, error) { return formattedAblation(e.AblationPureCalls(ws)) }},
		{"RegionSizeSweep", 3, func(e *Engine) (string, error) {
			pts, err := e.RegionSizeSweep(ws[0], []int{0, 8})
			return FormatSweep(ws[0].Name, pts), err
		}},
	}
	var outs [2][]string
	for k, workers := range []int{1, 3} {
		e := NewEngine(workers)
		e.Strict = true
		for _, d := range drivers {
			before := e.Timing().SimRuns
			out, err := d.run(e)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", d.name, workers, err)
			}
			if got := e.Timing().SimRuns - before; got != d.sims {
				t.Errorf("%s at workers=%d ran %d simulations, want %d", d.name, workers, got, d.sims)
			}
			outs[k] = append(outs[k], out)
		}
	}
	for i, d := range drivers {
		if outs[0][i] != outs[1][i] {
			t.Errorf("%s output differs between workers=1 and workers=3:\n--- 1 ---\n%s\n--- 3 ---\n%s", d.name, outs[0][i], outs[1][i])
		}
	}
}

// formatted renders a driver's result, or passes its error on.
func formatted[T interface{ Format() string }](res T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

// formattedAblation renders an ablation's rows, or passes its error on.
func formattedAblation(rows []AblationRow, err error) (string, error) {
	return FormatAblation("ablation", "on", "off", rows), err
}

// TestEngineCacheSharedAcrossFigures checks that one engine compiles at
// most one program per distinct (workload, options) pair even when
// several figures request the same builds: Fig10 and Fig12 both need
// the conventional and the idempotent binary of every workload, so the
// second figure must be all cache hits.
func TestEngineCacheSharedAcrossFigures(t *testing.T) {
	ws := subset(t, "mcf", "lbm")
	e := NewEngine(4)
	if _, err := e.Fig10(ws); err != nil {
		t.Fatal(err)
	}
	afterFig10 := e.Timing()
	if want := 2 * len(ws); afterFig10.DistinctPrograms != want {
		t.Fatalf("Fig10 built %d distinct programs, want %d (base+idempotent per workload)",
			afterFig10.DistinctPrograms, want)
	}
	if _, err := e.Fig12(ws); err != nil {
		t.Fatal(err)
	}
	afterFig12 := e.Timing()
	if afterFig12.CacheMisses != afterFig10.CacheMisses {
		t.Fatalf("Fig12 recompiled: misses went %d -> %d, want no change",
			afterFig10.CacheMisses, afterFig12.CacheMisses)
	}
	if afterFig12.CacheHits <= afterFig10.CacheHits {
		t.Fatalf("Fig12 did not hit the cache: hits stayed at %d", afterFig12.CacheHits)
	}
	if afterFig12.SimRuns <= afterFig10.SimRuns {
		t.Fatal("Fig12 reported no simulator runs")
	}
}

// TestGeomeanClampAccounting pins the clamp counting and the formatted
// warning, and the strict-mode error that tests rely on.
func TestGeomeanClampAccounting(t *testing.T) {
	g, clamped := GeomeanClamped([]float64{1, 4, 0, -3})
	if clamped != 2 {
		t.Fatalf("clamped = %d, want 2", clamped)
	}
	if g <= 0 {
		t.Fatalf("geomean = %g, want > 0", g)
	}
	if _, clamped := GeomeanClamped([]float64{1, 2, 4}); clamped != 0 {
		t.Fatalf("clean inputs reported %d clamps", clamped)
	}

	if note := clampNote(0); note != "" {
		t.Fatalf("clampNote(0) = %q, want empty", note)
	}
	if note := clampNote(3); !strings.Contains(note, "3 degenerate") {
		t.Fatalf("clampNote(3) = %q", note)
	}

	e := NewEngine(1)
	if err := e.strictGeomean("figX", 1); err != nil {
		t.Fatalf("non-strict engine errored: %v", err)
	}
	e.Strict = true
	err := e.strictGeomean("figX", 1)
	if err == nil || !strings.Contains(err.Error(), "figX") {
		t.Fatalf("strict engine error = %v, want error naming the driver", err)
	}
	if err := e.strictGeomean("figX", 0); err != nil {
		t.Fatalf("strict engine with 0 clamps errored: %v", err)
	}
}

// TestForEachErrorDeterminism checks that a failing unit cancels the
// rest and the reported error is a real unit error, never a bare
// cancellation.
func TestForEachErrorDeterminism(t *testing.T) {
	e := NewEngine(8)
	unitErr := errors.New("unit 13 broke")
	var ran atomic.Int64
	err := e.ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 13 {
			return unitErr
		}
		return nil
	})
	if !errors.Is(err, unitErr) {
		t.Fatalf("forEach returned %v, want the unit error", err)
	}
	if n := ran.Load(); n > 64 {
		t.Fatalf("ran %d units, want <= 64", n)
	}

	// No error, no cancellation: every unit runs exactly once.
	ran.Store(0)
	if err := e.ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 64 {
		t.Fatalf("ran %d units, want 64", n)
	}
}
