package codegen

import (
	"fmt"

	"idemproc/internal/core"
	"idemproc/internal/ir"
)

// BuildStats aggregates per-module compilation statistics. It is plain
// data — no IR pointers — so a BuildStats round-trips losslessly through
// the binary artifact codec (serialize.go) alongside its Program; the
// disk tier of internal/buildcache depends on that to serve compile
// reports from persisted artifacts byte-identically.
type BuildStats struct {
	// Construction holds each function's region-construction summary
	// (idempotent builds only).
	Construction map[string]*FuncConstruction
	// Marks is the total number of region boundaries.
	Marks int
	// SpillLoads/SpillStores are static spill-code counts.
	SpillLoads, SpillStores int
	// StaticInstrs is the linked program size.
	StaticInstrs int
	// FrameWords is the summed stack frame size over all functions (the
	// paper: "our compiler does not grow the size of the stack
	// significantly").
	FrameWords int
}

// FuncConstruction is one function's §4 region-construction outcome in
// the plain-data form reports and experiment tables consume. Unlike
// core.Result it carries no *ir.Value or *ir.Func references: the
// antidependences are rendered to their textual form at build time, so
// the summary survives serialization and outlives the (mutated) IR.
type FuncConstruction struct {
	// Stats summarizes the construction (see core.Stats).
	Stats core.Stats
	// Cuts is the total number of region cuts placed, including any extra
	// cuts the §4.4 live-in repair loop added during compilation.
	Cuts int
	// Antideps are the memory antidependences the construction cut.
	Antideps []AntidepInfo
}

// AntidepInfo is one cut clobber antidependence, with the read and write
// rendered via ir.Value.LongString.
type AntidepInfo struct {
	Read, Write string
	MustAlias   bool
}

// summarizeConstruction flattens a core.Result. Called after the
// function is fully compiled so Cuts includes repair-loop additions
// (codegen.Compile grows the cut set in place).
func summarizeConstruction(res *core.Result) *FuncConstruction {
	fc := &FuncConstruction{Stats: res.Stats, Cuts: len(res.Cuts)}
	for _, d := range res.Antideps {
		fc.Antideps = append(fc.Antideps, AntidepInfo{
			Read:      d.Read.LongString(),
			Write:     d.Write.LongString(),
			MustAlias: d.MustAliasPair,
		})
	}
	return fc
}

// CompileModule lowers every function of m and links an executable whose
// stub calls main. When idem is true, each function first goes through
// the §4 region construction and is compiled with MARKs and the §4.4
// allocation constraint; otherwise the conventional optimizing pipeline
// runs (the paper's "original binary": same SSA construction and
// redundancy elimination, unconstrained allocation).
//
// m is mutated; callers who need the original keep their own copy.
func CompileModule(m *ir.Module, main string, memWords int, idem bool, opts core.Options) (*Program, *BuildStats, error) {
	return CompileModuleOpts(m, main, memWords, ModuleOptions{Idempotent: idem, Core: opts})
}

// ModuleOptions parameterizes CompileModuleOpts beyond the common cases.
type ModuleOptions struct {
	// Idempotent runs the §4 region construction and emits MARKs.
	Idempotent bool
	// Core configures the region construction.
	Core core.Options
	// RelaxedAlloc skips the §4.4 allocation constraint (ablation only).
	RelaxedAlloc bool
	// PureCalls enables the inter-procedural pure-call extension: memory-
	// free functions are compiled without region marks and calls to them
	// do not split their caller's regions (they are simply re-executed
	// with the enclosing region on recovery).
	PureCalls bool
}

// CompileModuleOpts is CompileModule with full options.
func CompileModuleOpts(m *ir.Module, main string, memWords int, mo ModuleOptions) (*Program, *BuildStats, error) {
	idem := mo.Idempotent
	opts := mo.Core
	globalBase, _ := LayoutGlobals(m)
	st := &BuildStats{Construction: map[string]*FuncConstruction{}}
	if mo.PureCalls && idem {
		opts.PureFuncs = core.PureFunctions(m)
	}
	var funcs []*Compiled
	for _, f := range m.Funcs {
		var res *core.Result
		var cuts map[*ir.Value]bool
		if idem && !opts.PureFuncs[f.Name] {
			r, err := core.Construct(f, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("construct @%s: %w", f.Name, err)
			}
			res, cuts = r, r.Cuts
		} else {
			// The conventional flow, and pure functions in an idempotent
			// build: the same mid-end, no region machinery. A pure function
			// carries no marks; a fault inside one recovers to the caller's
			// region entry and re-executes the call.
			core.MidEnd(f, opts.RedElim)
		}
		c, err := Compile(f, globalBase, Options{Cuts: cuts, RelaxedAlloc: mo.RelaxedAlloc})
		if err != nil {
			return nil, nil, fmt.Errorf("compile @%s: %w", f.Name, err)
		}
		if res != nil {
			// Summarize after Compile so the repair loop's extra cuts are
			// counted (Compile grows res.Cuts in place).
			st.Construction[f.Name] = summarizeConstruction(res)
		}
		st.Marks += c.Marks
		st.SpillLoads += c.SpillLoads
		st.SpillStores += c.SpillStores
		st.FrameWords += c.FrameWords
		funcs = append(funcs, c)
	}
	p, err := Link(m, funcs, main, memWords)
	if err != nil {
		return nil, nil, err
	}
	st.StaticInstrs = len(p.Instrs)
	return p, st, nil
}
