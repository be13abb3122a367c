// Package experiments regenerates the paper's evaluation: one driver per
// table and figure, shared by cmd/idembench and the repository-root
// benchmarks. Each driver runs the workload suite through the relevant
// pipeline(s) and returns structured rows plus the aggregate the paper
// reports (geometric means, per-suite splits); Format* helpers render the
// same series the paper plots.
//
// Drivers are methods on Engine (see engine.go): every (workload,
// configuration) simulation is its own unit on a bounded worker pool,
// compiles are memoized in a shared content-keyed cache, and aggregation
// happens in deterministic index order so tables are byte-identical for
// any worker count; NewEngine(1) runs them serially.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/limit"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// geomeanEps is the clamp floor for degenerate geomean inputs.
const geomeanEps = 1e-9

// Geomean returns the geometric mean of strictly positive values; zeroes
// are clamped to a small epsilon so a single degenerate row cannot zero
// the aggregate. Use GeomeanClamped when the caller must know whether
// clamping occurred (a clamp can mask a broken workload as a tiny
// aggregate shift, so the drivers count and surface clamps).
func Geomean(xs []float64) float64 {
	g, _ := GeomeanClamped(xs)
	return g
}

// GeomeanClamped is Geomean, also reporting how many inputs were clamped
// to the epsilon floor.
func GeomeanClamped(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := 0.0
	clamped := 0
	for _, x := range xs {
		if x < geomeanEps {
			x = geomeanEps
			clamped++
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), clamped
}

// clampNote renders the degenerate-row warning appended to formatted
// tables whose geomeans clamped inputs ("" when none did).
func clampNote(clamped int) string {
	if clamped == 0 {
		return ""
	}
	return fmt.Sprintf("WARNING: %d degenerate geomean input(s) clamped to %g — inspect the rows above\n", clamped, geomeanEps)
}

// conventional and idempotent are the paper's two builds of a workload,
// both with the paper's region-construction options.
func conventional() codegen.ModuleOptions {
	return codegen.ModuleOptions{Core: core.DefaultOptions()}
}

func idempotent() codegen.ModuleOptions {
	return codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
}

// schemeBuild is the build a recovery scheme instruments.
func schemeBuild(s fault.Scheme) codegen.ModuleOptions {
	if s.Idempotent() {
		return idempotent()
	}
	return conventional()
}

// trackPaths runs an idempotent build with its path-length histogram on.
var trackPaths = machine.Config{BufferStores: true, TrackPaths: true}

// ---------------------------------------------------------------------
// Figure 4: the limit study.

// Fig4Row is one benchmark's average dynamic idempotent path length under
// the three clobber categories.
type Fig4Row struct {
	Name  string
	Suite workloads.Suite
	Avg   [3]float64
}

// Fig4Result is the full limit study.
type Fig4Result struct {
	Rows []Fig4Row
	// Geomean per category, across all workloads.
	Geomean [3]float64
	// Clamped counts degenerate rows clamped in the geomeans.
	Clamped int
}

// fig4Conf is the limit study's run: the conventional binary under
// dynamic clobber tracking.
var fig4Conf = conf{mo: conventional(), limitStudy: true}

// Fig4 runs the limit study over the given workloads.
func (e *Engine) Fig4(ws []workloads.Workload) (*Fig4Result, error) {
	runs, err := e.simulate(ws, fig4Conf)
	if err != nil {
		return nil, err
	}
	return e.fig4Result(ws, runs)
}

// fig4Result reads the limit study from each workload's first run and
// takes the geomeans; a strict engine fails when one clamps.
func (e *Engine) fig4Result(ws []workloads.Workload, runs [][]simRun) (*Fig4Result, error) {
	res := &Fig4Result{Rows: make([]Fig4Row, len(ws))}
	for i, w := range ws {
		res.Rows[i] = Fig4Row{Name: w.Name, Suite: w.Suite}
		for c, lr := range runs[i][0].limits {
			res.Rows[i].Avg[c] = lr.AvgPathLen
		}
	}
	for c := 0; c < 3; c++ {
		vals := make([]float64, len(ws))
		for i, r := range res.Rows {
			vals[i] = r.Avg[c]
		}
		var cl int
		res.Geomean[c], cl = GeomeanClamped(vals)
		res.Clamped += cl
	}
	if err := e.strictGeomean("Fig4", res.Clamped); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders the figure as a text table.
func (r *Fig4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: average dynamic idempotent path lengths in the limit\n")
	fmt.Fprintf(&b, "%-16s %-9s %14s %16s %22s\n", "benchmark", "suite", "semantic", "semantic+calls", "semantic+artificial")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-9s %14.1f %16.1f %22.1f\n",
			row.Name, row.Suite, row.Avg[limit.Semantic], row.Avg[limit.SemanticCalls], row.Avg[limit.SemanticArtificial])
	}
	fmt.Fprintf(&b, "%-16s %-9s %14.1f %16.1f %22.1f\n", "GEOMEAN", "",
		r.Geomean[limit.Semantic], r.Geomean[limit.SemanticCalls], r.Geomean[limit.SemanticArtificial])
	fmt.Fprintf(&b, "(paper, ARMv7/SPEC/PARSEC: 1300 / 110 / 10.8)\n")
	b.WriteString(clampNote(r.Clamped))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8: distribution of idempotent path lengths.

// Fig8Row is one benchmark's execution-time-weighted path-length CDF.
type Fig8Row struct {
	Name  string
	Suite workloads.Suite
	// Lens/CDF are the (sorted) path lengths and cumulative fractions.
	Lens []int64
	CDF  []float64
	// FracUnder10/100 are the fractions of execution time spent on paths
	// of ≤10/≤100 instructions (the paper highlights the ≤10 mark).
	FracUnder10, FracUnder100 float64
}

// fig8Conf is the constructed binary's run with path tracking.
var fig8Conf = conf{mo: idempotent(), cfg: trackPaths}

// Fig8 measures the constructed binaries' dynamic path distributions.
func (e *Engine) Fig8(ws []workloads.Workload) ([]Fig8Row, error) {
	runs, err := e.simulate(ws, fig8Conf)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(ws))
	for i, w := range ws {
		lens, cdf := runs[i][0].WeightedPathCDF()
		rows[i] = Fig8Row{Name: w.Name, Suite: w.Suite, Lens: lens, CDF: cdf}
		for j, l := range lens {
			if l <= 10 {
				rows[i].FracUnder10 = cdf[j]
			}
			if l <= 100 {
				rows[i].FracUnder100 = cdf[j]
			}
		}
	}
	return rows, nil
}

// FormatFig8 renders per-benchmark CDF milestones.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: cumulative distribution of dynamic path lengths (execution-time weighted)\n")
	fmt.Fprintf(&b, "%-16s %-9s %12s %12s %12s\n", "benchmark", "suite", "≤10 instrs", "≤100 instrs", "max len")
	for _, r := range rows {
		maxLen := int64(0)
		if n := len(r.Lens); n > 0 {
			maxLen = r.Lens[n-1]
		}
		fmt.Fprintf(&b, "%-16s %-9s %11.1f%% %11.1f%% %12d\n",
			r.Name, r.Suite, r.FracUnder10*100, r.FracUnder100*100, maxLen)
	}
	fmt.Fprintf(&b, "(paper: most applications spend <20%% of execution on paths ≤10 instructions)\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 9: constructed vs ideal average path lengths.

// Fig9Row compares one benchmark's constructed dynamic path length with
// the limit-study ideal (semantic+calls, the intra-procedural limit).
type Fig9Row struct {
	Name        string
	Suite       workloads.Suite
	Constructed float64
	Ideal       float64
}

// Fig9Result bundles rows with the paper's headline geomeans.
type Fig9Result struct {
	Rows                             []Fig9Row
	GeomeanConstructed, GeomeanIdeal float64
	// Clamped counts degenerate rows clamped in the geomeans.
	Clamped int
}

// Fig9 runs Fig. 4's and Fig. 8's measurements as one set of units.
// Both share the engine's compile cache, so the conventional and
// idempotent binaries are each built at most once across Fig4/Fig8/Fig9.
func (e *Engine) Fig9(ws []workloads.Workload) (*Fig9Result, error) {
	runs, err := e.simulate(ws, fig4Conf, fig8Conf)
	if err != nil {
		return nil, err
	}
	ideal, err := e.fig4Result(ws, runs)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	var cons, ide []float64
	for i, w := range ws {
		row := Fig9Row{
			Name: w.Name, Suite: w.Suite,
			Constructed: weightedAvg(runs[i][1].WeightedPathCDF()),
			Ideal:       ideal.Rows[i].Avg[limit.SemanticCalls],
		}
		res.Rows = append(res.Rows, row)
		cons = append(cons, row.Constructed)
		ide = append(ide, row.Ideal)
	}
	var clC, clI int
	res.GeomeanConstructed, clC = GeomeanClamped(cons)
	res.GeomeanIdeal, clI = GeomeanClamped(ide)
	res.Clamped = clC + clI
	if err := e.strictGeomean("Fig9", res.Clamped); err != nil {
		return nil, err
	}
	return res, nil
}

// weightedAvg converts a CDF back to a plain average path length.
func weightedAvg(lens []int64, cdf []float64) float64 {
	// The CDF is execution-time weighted; recover the plain average as
	// total instructions / number of paths using the increments.
	if len(lens) == 0 {
		return 0
	}
	totalF := 0.0
	paths := 0.0
	prev := 0.0
	// increment_i = len_i * count_i / total; so count_i ∝ inc/len_i.
	for i, l := range lens {
		inc := cdf[i] - prev
		prev = cdf[i]
		totalF += inc
		paths += inc / float64(l)
	}
	if paths == 0 {
		return 0
	}
	return totalF / paths
}

// Format renders figure 9.
func (r *Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: average idempotent path lengths — constructed vs ideal\n")
	fmt.Fprintf(&b, "%-16s %-9s %12s %12s %8s\n", "benchmark", "suite", "constructed", "ideal", "ratio")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.Constructed > 0 {
			ratio = row.Ideal / row.Constructed
		}
		fmt.Fprintf(&b, "%-16s %-9s %12.1f %12.1f %7.1fx\n", row.Name, row.Suite, row.Constructed, row.Ideal, ratio)
	}
	fmt.Fprintf(&b, "%-16s %-9s %12.1f %12.1f %7.1fx\n", "GEOMEAN", "",
		r.GeomeanConstructed, r.GeomeanIdeal, r.GeomeanIdeal/math.Max(r.GeomeanConstructed, 1e-9))
	fmt.Fprintf(&b, "(paper: 28.1 constructed vs 116 ideal, ~4x; 1.5x without the hmmer/lbm aliasing outliers)\n")
	b.WriteString(clampNote(r.Clamped))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 10: runtime overheads of idempotent compilation.

// Fig10Row is one benchmark's overhead of the idempotent binary over the
// conventional one.
type Fig10Row struct {
	Name  string
	Suite workloads.Suite
	// TimePct is the execution-time (cycles) overhead percentage;
	// InstrPct the dynamic instruction count overhead percentage.
	TimePct, InstrPct float64
	// BaseCycles/IdemCycles are the raw measurements.
	BaseCycles, IdemCycles int64
	BaseInstrs, IdemInstrs int64
}

// Fig10Result groups rows with per-suite and overall geomeans, matching
// the paper's reporting.
type Fig10Result struct {
	Rows []Fig10Row
	// SuiteTime/SuiteInstr map suite → geomean overhead pct.
	SuiteTime, SuiteInstr     map[workloads.Suite]float64
	OverallTime, OverallInstr float64
	// Clamped counts degenerate rows clamped in the geomeans.
	Clamped int
}

// Fig10 measures both binaries for every workload.
func (e *Engine) Fig10(ws []workloads.Workload) (*Fig10Result, error) {
	runs, err := e.simulate(ws,
		conf{mo: conventional()},
		conf{mo: idempotent(), cfg: machine.Config{BufferStores: true}})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig10Row, len(ws))
	for i, w := range ws {
		mb, mi := &runs[i][0], &runs[i][1]
		rows[i] = Fig10Row{
			Name: w.Name, Suite: w.Suite,
			TimePct:    100 * (float64(mi.Cycles)/float64(mb.Cycles) - 1),
			InstrPct:   100 * (float64(mi.DynInstrs)/float64(mb.DynInstrs) - 1),
			BaseCycles: mb.Cycles, IdemCycles: mi.Cycles,
			BaseInstrs: mb.DynInstrs, IdemInstrs: mi.DynInstrs,
		}
	}

	res := &Fig10Result{
		Rows:       rows,
		SuiteTime:  map[workloads.Suite]float64{},
		SuiteInstr: map[workloads.Suite]float64{},
	}
	suiteT := map[workloads.Suite][]float64{}
	suiteI := map[workloads.Suite][]float64{}
	var allT, allI []float64
	for _, row := range rows {
		// Geomean over ratios (1+pct), reported back as pct.
		suiteT[row.Suite] = append(suiteT[row.Suite], 1+row.TimePct/100)
		suiteI[row.Suite] = append(suiteI[row.Suite], 1+row.InstrPct/100)
		allT = append(allT, 1+row.TimePct/100)
		allI = append(allI, 1+row.InstrPct/100)
	}
	geoPct := func(xs []float64) float64 {
		g, cl := GeomeanClamped(xs)
		res.Clamped += cl
		return 100 * (g - 1)
	}
	for s, xs := range suiteT {
		res.SuiteTime[s] = geoPct(xs)
	}
	for s, xs := range suiteI {
		res.SuiteInstr[s] = geoPct(xs)
	}
	res.OverallTime = geoPct(allT)
	res.OverallInstr = geoPct(allI)
	if err := e.strictGeomean("Fig10", res.Clamped); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders figure 10.
func (r *Fig10Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: idempotent compilation overheads (vs conventional binary)\n")
	fmt.Fprintf(&b, "%-16s %-9s %12s %12s\n", "benchmark", "suite", "time ovh", "instr ovh")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-9s %11.1f%% %11.1f%%\n", row.Name, row.Suite, row.TimePct, row.InstrPct)
	}
	var suites []workloads.Suite
	for s := range r.SuiteTime {
		suites = append(suites, s)
	}
	sort.Slice(suites, func(i, j int) bool { return suites[i] < suites[j] })
	for _, s := range suites {
		fmt.Fprintf(&b, "%-16s %-9s %11.1f%% %11.1f%%\n", "GEOMEAN", s, r.SuiteTime[s], r.SuiteInstr[s])
	}
	fmt.Fprintf(&b, "%-16s %-9s %11.1f%% %11.1f%%\n", "GEOMEAN", "all", r.OverallTime, r.OverallInstr)
	fmt.Fprintf(&b, "(paper time ovh: SPEC INT 11.2%%, SPEC FP 5.4%%, PARSEC 2.7%%, overall 7.7%%)\n")
	b.WriteString(clampNote(r.Clamped))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 12: recovery-scheme overheads relative to the DMR baseline.

// Fig12Row is one benchmark's overhead of each recovery scheme over DMR.
type Fig12Row struct {
	Name  string
	Suite workloads.Suite
	// Percent overheads relative to DMR-on-original-binary cycles.
	TMRPct, CLPct, IdemPct float64
	DMRCycles              int64
}

// Fig12Result groups rows with overall geomeans.
type Fig12Result struct {
	Rows                   []Fig12Row
	GeoTMR, GeoCL, GeoIdem float64
	// Clamped counts degenerate rows clamped in the geomeans.
	Clamped int
}

// Fig12 builds and times all four configurations per workload.
func (e *Engine) Fig12(ws []workloads.Workload) (*Fig12Result, error) {
	confs := make([]conf, len(fault.Schemes)) // DMR, TMR, CL, IDEM
	for k, s := range fault.Schemes {
		confs[k] = conf{mo: schemeBuild(s), scheme: &s, cfg: s.Config()}
	}
	runs, err := e.simulate(ws, confs...)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig12Row, len(ws))
	for i, w := range ws {
		dmr := float64(runs[i][0].Cycles)
		pct := func(k int) float64 { return 100 * (float64(runs[i][k].Cycles)/dmr - 1) }
		rows[i] = Fig12Row{
			Name: w.Name, Suite: w.Suite,
			TMRPct: pct(1), CLPct: pct(2), IdemPct: pct(3),
			DMRCycles: runs[i][0].Cycles,
		}
	}

	res := &Fig12Result{Rows: rows}
	var tmrs, cls, idems []float64
	for _, row := range rows {
		tmrs = append(tmrs, 1+row.TMRPct/100)
		cls = append(cls, 1+row.CLPct/100)
		idems = append(idems, 1+row.IdemPct/100)
	}
	geoPct := func(xs []float64) float64 {
		g, cl := GeomeanClamped(xs)
		res.Clamped += cl
		return 100 * (g - 1)
	}
	res.GeoTMR = geoPct(tmrs)
	res.GeoCL = geoPct(cls)
	res.GeoIdem = geoPct(idems)
	if err := e.strictGeomean("Fig12", res.Clamped); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders figure 12.
func (r *Fig12Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: recovery overheads relative to the DMR detection baseline\n")
	fmt.Fprintf(&b, "%-16s %-9s %16s %20s %14s\n", "benchmark", "suite", "INSTRUCTION-TMR", "CHECKPOINT-AND-LOG", "IDEMPOTENCE")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-9s %15.1f%% %19.1f%% %13.1f%%\n", row.Name, row.Suite, row.TMRPct, row.CLPct, row.IdemPct)
	}
	fmt.Fprintf(&b, "%-16s %-9s %15.1f%% %19.1f%% %13.1f%%\n", "GEOMEAN", "", r.GeoTMR, r.GeoCL, r.GeoIdem)
	fmt.Fprintf(&b, "(paper: TMR 30.5%%, CHECKPOINT-AND-LOG 24.0%%, IDEMPOTENCE 8.2%%)\n")
	b.WriteString(clampNote(r.Clamped))
	return b.String()
}
