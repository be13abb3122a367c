package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// ---------------------------------------------------------------------
// Table 2: semantic vs artificial clobber antidependences by storage.

// Table2Row counts one workload's antidependences by storage class,
// before and after the §4.1 transformations.
type Table2Row struct {
	Name  string
	Suite workloads.Suite
	// MemoryAntideps are the WAR pairs on heap/global/non-local storage
	// (semantic: must be cut); PromotedAllocas counts the allocas the
	// promotion pass moved into pseudoregisters (artificial: compiled
	// away; the idc frontend already lowers scalar locals to
	// pseudoregisters, so only arrays reach it as allocas);
	// SelfDepLoops counts the loops whose self-dependent φs §4.2.2
	// handles, one per loop however many φs it carries.
	MemoryAntideps  int
	PromotedAllocas int
	SelfDepLoops    int
	CutsPlaced      int
}

// Table2 analyses every workload statically.
func (e *Engine) Table2(ws []workloads.Workload) ([]Table2Row, error) {
	rows := make([]Table2Row, len(ws))
	err := e.ForEach(context.Background(), len(ws), func(ctx context.Context, i int) error {
		w := ws[i]
		m := w.Module()
		row := Table2Row{Name: w.Name, Suite: w.Suite}
		for _, f := range m.Funcs {
			res, err := core.Construct(f, core.DefaultOptions())
			if err != nil {
				return fmt.Errorf("%s/@%s: %w", w.Name, f.Name, err)
			}
			row.MemoryAntideps += len(res.Antideps)
			row.PromotedAllocas += res.Stats.PromotedAllocas
			row.SelfDepLoops += len(res.SelfDep)
			row.CutsPlaced += len(res.Cuts)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable2 renders the classification.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 (instantiated): clobber antidependences by storage resource\n")
	fmt.Fprintf(&b, "  semantic   → heap/global/non-local memory: must be cut (region boundaries)\n")
	fmt.Fprintf(&b, "  artificial → registers and local stack: compiled away (promotion + SSA + §4.4)\n\n")
	fmt.Fprintf(&b, "%-16s %-9s %10s %10s %10s %8s\n", "benchmark", "suite", "semantic", "promoted", "selfdep-φ", "cuts")
	tot := Table2Row{}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-9s %10d %10d %10d %8d\n", r.Name, r.Suite, r.MemoryAntideps, r.PromotedAllocas, r.SelfDepLoops, r.CutsPlaced)
		tot.MemoryAntideps += r.MemoryAntideps
		tot.PromotedAllocas += r.PromotedAllocas
		tot.SelfDepLoops += r.SelfDepLoops
		tot.CutsPlaced += r.CutsPlaced
	}
	fmt.Fprintf(&b, "%-16s %-9s %10d %10d %10d %8d\n", "TOTAL", "", tot.MemoryAntideps, tot.PromotedAllocas, tot.SelfDepLoops, tot.CutsPlaced)
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 11: the three recovery transforms, shown on a tiny sequence.

// Fig11 renders the instrumented forms of a canonical load-add-store
// sequence under each scheme, mirroring the paper's figure.
func Fig11() string {
	seq := []isa.Instr{
		{Op: isa.LDR, Rd: isa.R1, Rs1: isa.R0},
		{Op: isa.ADD, Rd: isa.R2, Rs1: isa.R3, Rs2: isa.R4},
		{Op: isa.STR, Rs1: isa.R1, Rs2: isa.R2},
	}
	render := func(name string, edit func(int, isa.Instr) ([]isa.Instr, []isa.Instr)) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:\n", name)
		for i, in := range seq {
			before, after := edit(i, in)
			for _, x := range before {
				fmt.Fprintf(&b, "    %s\n", x)
			}
			fmt.Fprintf(&b, "    %s\n", in)
			for _, x := range after {
				fmt.Fprintf(&b, "    %s   ; redundant copy #%d\n", x, x.Shadow)
			}
		}
		return b.String()
	}
	var b strings.Builder
	b.WriteString("Figure 11: recovery transforms over `ld r1=[r0]; add r2=r3,r4; st [r1]=r2`\n\n")
	b.WriteString(render("DMR baseline", func(i int, in isa.Instr) ([]isa.Instr, []isa.Instr) {
		return fault.DMREdit(in)
	}))
	b.WriteString("\n")
	b.WriteString(render("INSTRUCTION-TMR", fault.TMREdit))
	b.WriteString("\n")
	b.WriteString(render("CHECKPOINT-AND-LOG", fault.CLEdit))
	b.WriteString("\nIDEMPOTENCE: the idempotent binary's MARK at each boundary (mov rp) plus the DMR checks above.\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// AblationRow compares a metric with a design choice on vs off.
type AblationRow struct {
	Name    string
	On, Off float64
}

// AblationLoopHeuristic compares average dynamic path lengths with the
// §4.3 loop-nesting heuristic on vs off.
func (e *Engine) AblationLoopHeuristic(ws []workloads.Workload) ([]AblationRow, error) {
	return e.ablation(ws, func(on bool) codegen.ModuleOptions {
		mo := idempotent()
		mo.Core.LoopHeuristic = on
		return mo
	}, trackPaths, (*machine.Stats).AvgPathLen)
}

// AblationUnroll compares average dynamic path lengths with the §5 loop
// unroll on vs off.
func (e *Engine) AblationUnroll(ws []workloads.Workload) ([]AblationRow, error) {
	return e.ablation(ws, func(on bool) codegen.ModuleOptions {
		mo := idempotent()
		mo.Core.UnrollLoops = on
		return mo
	}, trackPaths, (*machine.Stats).AvgPathLen)
}

// ablation simulates every workload twice, built with the design choice
// on (mo(true)) and off (mo(false)), and reads metric from each run.
func (e *Engine) ablation(ws []workloads.Workload, mo func(on bool) codegen.ModuleOptions,
	cfg machine.Config, metric func(*machine.Stats) float64) ([]AblationRow, error) {
	runs, err := e.simulate(ws, conf{mo: mo(true), cfg: cfg}, conf{mo: mo(false), cfg: cfg})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(ws))
	for i, w := range ws {
		rows[i] = AblationRow{Name: w.Name, On: metric(&runs[i][0].Stats), Off: metric(&runs[i][1].Stats)}
	}
	return rows, nil
}

// AblationRedElim compares the number of memory antidependences the
// region construction must cut with the Fig. 5 redundancy elimination on
// vs off.
func (e *Engine) AblationRedElim(ws []workloads.Workload) ([]AblationRow, error) {
	rows := make([]AblationRow, len(ws))
	err := e.ForEach(context.Background(), len(ws), func(ctx context.Context, i int) error {
		w := ws[i]
		row := AblationRow{Name: w.Name}
		for _, on := range []bool{true, false} {
			opts := core.DefaultOptions()
			opts.RedElim = on
			m := w.Module()
			cuts := 0
			for _, f := range m.Funcs {
				res, err := core.Construct(f, opts)
				if err != nil {
					return fmt.Errorf("%s/@%s: %w", w.Name, f.Name, err)
				}
				cuts += len(res.Cuts)
			}
			if on {
				row.On = float64(cuts)
			} else {
				row.Off = float64(cuts)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationRegalloc isolates the §4.4 allocation constraint: same cuts and
// MARKs, allocation constraint on vs off, measured in cycles.
func (e *Engine) AblationRegalloc(ws []workloads.Workload) ([]AblationRow, error) {
	return e.ablation(ws, func(constrained bool) codegen.ModuleOptions {
		mo := idempotent()
		mo.RelaxedAlloc = !constrained
		return mo
	}, machine.Config{BufferStores: true}, func(s *machine.Stats) float64 { return float64(s.Cycles) })
}

// FormatAblation renders an ablation table.
func FormatAblation(title, onLabel, offLabel string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-16s %14s %14s %8s\n", title, "benchmark", onLabel, offLabel, "ratio")
	var ratios []float64
	for _, r := range rows {
		ratio := 0.0
		if r.Off > 0 {
			ratio = r.On / r.Off
		}
		ratios = append(ratios, ratio)
		fmt.Fprintf(&b, "%-16s %14.1f %14.1f %8.2f\n", r.Name, r.On, r.Off, ratio)
	}
	g, clamped := GeomeanClamped(ratios)
	fmt.Fprintf(&b, "%-16s %14s %14s %8.2f\n", "GEOMEAN", "", "", g)
	b.WriteString(clampNote(clamped))
	return b.String()
}

// ---------------------------------------------------------------------
// Static region characteristics (supports §6.2's discussion).

// CharacteristicsRow summarizes the static construction of one workload.
type CharacteristicsRow struct {
	Name          string
	Suite         workloads.Suite
	Functions     int
	Instructions  int
	Regions       int
	AvgRegionSize float64
	Cuts          int
	SpillLoads    int
	SpillStores   int
}

// Characteristics runs the construction on every workload.
func (e *Engine) Characteristics(ws []workloads.Workload) ([]CharacteristicsRow, error) {
	rows := make([]CharacteristicsRow, len(ws))
	err := e.ForEach(context.Background(), len(ws), func(ctx context.Context, i int) error {
		w := ws[i]
		_, st, err := e.Build(ctx, w, idempotent())
		if err != nil {
			return err
		}
		row := CharacteristicsRow{Name: w.Name, Suite: w.Suite,
			SpillLoads: st.SpillLoads, SpillStores: st.SpillStores}
		// Iterate functions in sorted-name order so the floating-point
		// accumulation below is identical run to run (map order is not).
		names := make([]string, 0, len(st.Construction))
		for name := range st.Construction {
			names = append(names, name)
		}
		sort.Strings(names)
		total := 0.0
		for _, name := range names {
			res := st.Construction[name]
			row.Functions++
			row.Instructions += res.Stats.Instructions
			row.Regions += res.Stats.RegionCount
			row.Cuts += res.Cuts
			total += res.Stats.AvgRegionSize * float64(res.Stats.RegionCount)
		}
		if row.Regions > 0 {
			row.AvgRegionSize = total / float64(row.Regions)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCharacteristics renders the static table.
func FormatCharacteristics(rows []CharacteristicsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Static region characteristics (idempotent compilation)\n")
	fmt.Fprintf(&b, "%-16s %-9s %6s %8s %8s %6s %10s %8s %8s\n",
		"benchmark", "suite", "funcs", "instrs", "regions", "cuts", "avg size", "spill-ld", "spill-st")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-9s %6d %8d %8d %6d %10.1f %8d %8d\n",
			r.Name, r.Suite, r.Functions, r.Instructions, r.Regions, r.Cuts, r.AvgRegionSize, r.SpillLoads, r.SpillStores)
	}
	return b.String()
}

// AblationPureCalls measures the inter-procedural pure-call extension:
// average dynamic path length with regions spanning memory-free callees
// vs the strictly intra-procedural default.
func (e *Engine) AblationPureCalls(ws []workloads.Workload) ([]AblationRow, error) {
	return e.ablation(ws, func(on bool) codegen.ModuleOptions {
		mo := idempotent()
		mo.PureCalls = on
		return mo
	}, trackPaths, (*machine.Stats).AvgPathLen)
}
