package experiments

import (
	"math"
	"strings"
	"testing"

	"idemproc/internal/limit"
	"idemproc/internal/workloads"
)

// subset returns a small cross-suite workload selection to keep tests
// fast; the full suite runs under `go test -bench=.`.
func subset(t *testing.T, names ...string) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws
}

// strictEngine returns a small parallel engine with strict geomean
// checking: a degenerate (clamped) measurement fails the driver — and
// hence the test — instead of hiding behind the epsilon floor.
func strictEngine() *Engine {
	e := NewEngine(2)
	e.Strict = true
	return e
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("Geomean(2,8) = %f", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if g := Geomean([]float64{0, 4}); g <= 0 {
		t.Fatal("zero clamping broken")
	}
}

func TestFig4Shape(t *testing.T) {
	ws := subset(t, "mcf", "lbm")
	res, err := strictEngine().Fig4(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The paper's fundamental ordering must hold per benchmark.
		if !(r.Avg[limit.Semantic] >= r.Avg[limit.SemanticCalls] &&
			r.Avg[limit.SemanticCalls] >= r.Avg[limit.SemanticArtificial]) {
			t.Fatalf("%s: category ordering violated: %v", r.Name, r.Avg)
		}
		if r.Avg[limit.SemanticArtificial] <= 0 {
			t.Fatalf("%s: zero artificial path length", r.Name)
		}
	}
	if !strings.Contains(res.Format(), "GEOMEAN") {
		t.Fatal("Format lacks geomean row")
	}
}

func TestFig8And9Shape(t *testing.T) {
	ws := subset(t, "canneal", "lbm")
	rows, err := strictEngine().Fig8(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Lens) == 0 {
			t.Fatalf("%s: no path samples", r.Name)
		}
		// CDF must be monotone and end at 1.
		prev := 0.0
		for _, c := range r.CDF {
			if c < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone", r.Name)
			}
			prev = c
		}
		if math.Abs(prev-1) > 1e-9 {
			t.Fatalf("%s: CDF ends at %f", r.Name, prev)
		}
	}
	res9, err := strictEngine().Fig9(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res9.Rows {
		if r.Constructed <= 0 || r.Ideal <= 0 {
			t.Fatalf("%s: degenerate row %+v", r.Name, r)
		}
		// Constructed paths cannot exceed the intra-procedural ideal by
		// more than measurement slack (the ideal crosses no boundaries
		// the constructed code could avoid).
		if r.Constructed > r.Ideal*1.5 {
			t.Fatalf("%s: constructed %f far exceeds ideal %f", r.Name, r.Constructed, r.Ideal)
		}
	}
	_ = experimentsFormatSmoke(res9.Format())
}

func TestFig10Shape(t *testing.T) {
	ws := subset(t, "gcc", "milc", "canneal")
	res, err := strictEngine().Fig10(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		// Instruction overhead must be non-negative: the idempotent
		// binary strictly adds marks and spill code (time can jitter
		// slightly negative through branch alignment).
		if r.InstrPct < -0.5 {
			t.Fatalf("%s: negative instruction overhead %f%%", r.Name, r.InstrPct)
		}
		if r.BaseCycles <= 0 || r.IdemCycles <= 0 {
			t.Fatalf("%s: missing cycle counts", r.Name)
		}
	}
	if len(res.SuiteTime) != 3 {
		t.Fatalf("suite map = %v", res.SuiteTime)
	}
	_ = experimentsFormatSmoke(res.Format())
}

func TestFig12Shape(t *testing.T) {
	ws := subset(t, "gcc", "canneal")
	res, err := strictEngine().Fig12(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		// Every scheme adds instructions over DMR, so cycles should not
		// be dramatically negative.
		if r.TMRPct < -1 || r.CLPct < -1 {
			t.Fatalf("%s: negative scheme overhead: %+v", r.Name, r)
		}
		if r.DMRCycles <= 0 {
			t.Fatalf("%s: DMR baseline missing", r.Name)
		}
	}
	_ = experimentsFormatSmoke(res.Format())
}

func TestTable2AndCharacteristics(t *testing.T) {
	ws := subset(t, "mcf", "povray")
	rows, err := NewEngine(1).Table2(ws)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MemoryAntideps == 0 {
		t.Fatal("mcf must have semantic antidependences")
	}
	if rows[0].CutsPlaced == 0 {
		t.Fatal("no cuts placed")
	}
	_ = experimentsFormatSmoke(FormatTable2(rows))

	ch, err := NewEngine(1).Characteristics(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ch {
		if c.Functions == 0 || c.Regions == 0 || c.AvgRegionSize <= 0 {
			t.Fatalf("%s: degenerate characteristics %+v", c.Name, c)
		}
	}
	_ = experimentsFormatSmoke(FormatCharacteristics(ch))
}

func TestFig11Renders(t *testing.T) {
	out := Fig11()
	for _, want := range []string{"DMR", "INSTRUCTION-TMR", "CHECKPOINT-AND-LOG", "check r1", "maj", "addi rp, rp, #2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig11 output missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	ws := subset(t, "bzip2")
	lh, err := NewEngine(1).AblationLoopHeuristic(ws)
	if err != nil {
		t.Fatal(err)
	}
	if lh[0].On <= 0 || lh[0].Off <= 0 {
		t.Fatalf("loop heuristic ablation degenerate: %+v", lh[0])
	}
	un, err := NewEngine(1).AblationUnroll(ws)
	if err != nil {
		t.Fatal(err)
	}
	if un[0].On < un[0].Off*0.5 {
		t.Fatalf("unroll should not halve path lengths: %+v", un[0])
	}
	re, err := NewEngine(1).AblationRedElim(ws)
	if err != nil {
		t.Fatal(err)
	}
	if re[0].On > re[0].Off {
		t.Fatalf("redundancy elimination must not add cuts: %+v", re[0])
	}
	ra, err := NewEngine(1).AblationRegalloc(ws)
	if err != nil {
		t.Fatal(err)
	}
	if ra[0].On < ra[0].Off*0.95 {
		t.Fatalf("constraint should not speed things up: %+v", ra[0])
	}
	_ = experimentsFormatSmoke(FormatAblation("t", "a", "b", ra))
}

// experimentsFormatSmoke checks a rendered table is non-trivial.
func experimentsFormatSmoke(s string) bool {
	if len(s) < 40 || !strings.Contains(s, "\n") {
		panic("degenerate format output: " + s)
	}
	return true
}

func TestRegionSizeSweep(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	pts, err := NewEngine(1).RegionSizeSweep(w, []int{0, 32, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Tighter caps must not lengthen paths.
	if pts[2].AvgPathLen > pts[1].AvgPathLen+1 || pts[1].AvgPathLen > pts[0].AvgPathLen+1 {
		t.Fatalf("path lengths not monotone under caps: %+v", pts)
	}
	_ = experimentsFormatSmoke(FormatSweep(w.Name, pts))
}

func TestAblationPureCalls(t *testing.T) {
	ws := subset(t, "sjeng", "blackscholes")
	rows, err := NewEngine(1).AblationPureCalls(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.On < r.Off*0.9 {
			t.Fatalf("%s: pure-call mode shortened paths (%f vs %f)", r.Name, r.On, r.Off)
		}
	}
}
