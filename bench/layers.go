package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/alias"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/machine"
	"idemproc/internal/redelim"
	"idemproc/internal/ssa"
	"idemproc/internal/verify"
	"idemproc/internal/workloads"
)

// span is one timed call into a layer. Spans of one request or program
// share a trace id; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceFile is what -trace-out writes for one run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0     time.Time
	traces atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace allocates a trace id for one request or program.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	return int(t.traces.Add(1))
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkSpans verifies the span tree: every span is closed, its parent
// precedes it, shares its trace and contains its interval.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has a later parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) escapes its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// layerTimes sums, per span name, the total and the self time (the span
// minus its children).
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent != 0 {
			self[spans[s.Parent-1].Name] -= d
		}
	}
	return total, self
}

// replayed is what the step-by-step pipeline produced for one key.
type replayed struct {
	artifact                          []byte
	cuts, repairCuts, spills, regions int
	verified                          bool
}

// replay compiles one key through the public pipeline one layer at a
// time, with a span per call: the steps of codegen.CompileModuleOpts,
// then predecode, verify and the artifact codec.
func replay(tr *tracer, w workloads.Workload, mo codegen.ModuleOptions) (*replayed, error) {
	trace := tr.newTrace()
	root := tr.start("pipeline", 0, trace)
	step := func(name string, f func()) {
		id := tr.start(name, root, trace)
		f()
		tr.finish(id)
	}
	out := &replayed{}
	var err error

	var m *ir.Module
	step("lang", func() { m = w.Module() })
	globalBase, _ := codegen.LayoutGlobals(m)
	st := &codegen.BuildStats{Construction: map[string]*codegen.FuncConstruction{}}
	opts := mo.Core
	if mo.PureCalls && mo.Idempotent {
		step("core", func() { opts.PureFuncs = core.PureFunctions(m) })
	}
	var funcs []*codegen.Compiled
	for _, f := range m.Funcs {
		pure := mo.Idempotent && opts.PureFuncs[f.Name]
		var res *core.Result
		step("core", func() {
			if mo.Idempotent && !pure {
				res, err = core.Construct(f, opts)
				return
			}
			ssa.PromoteAllocas(f)
			ssa.Build(f)
			ssa.FoldConstants(f)
			if opts.RedElim {
				redelim.Run(f, alias.Compute(f))
				ssa.PropagateCopies(f)
				ssa.EliminateDeadValues(f)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("construct @%s: %w", f.Name, err)
		}
		cg := codegen.Options{RelaxedAlloc: mo.RelaxedAlloc}
		if pure {
			cg = codegen.Options{}
		}
		constructed := 0
		if res != nil {
			cg.Cuts = res.Cuts
			constructed = len(res.Cuts)
		}
		var c *codegen.Compiled
		step("codegen", func() { c, err = codegen.Compile(f, globalBase, cg) })
		if err != nil {
			return nil, fmt.Errorf("compile @%s: %w", f.Name, err)
		}
		if res != nil {
			st.Construction[f.Name] = summarize(res)
			out.cuts += constructed
			out.repairCuts += len(res.Cuts) - constructed
		}
		if !pure {
			st.Marks += c.Marks
		}
		st.SpillLoads += c.SpillLoads
		st.SpillStores += c.SpillStores
		st.FrameWords += c.FrameWords
		funcs = append(funcs, c)
	}
	var p *codegen.Program
	step("codegen.link", func() { p, err = codegen.Link(m, funcs, "main", w.MemWords) })
	if err != nil {
		return nil, err
	}
	st.StaticInstrs = len(p.Instrs)
	out.spills = st.SpillLoads + st.SpillStores
	step("machine.predecode", func() { machine.Predecode(p) })
	if mo.Idempotent && !mo.RelaxedAlloc && p.Marks > 0 {
		var rep *verify.Report
		step("verify", func() { rep = verify.Verify(p) })
		if !rep.OK() {
			return nil, fmt.Errorf("verify: %s", rep.Summary())
		}
		out.verified, out.regions = true, rep.Regions
	}
	step("codegen.encode", func() { out.artifact = codegen.EncodeProgram(p, st) })
	step("codegen.decode", func() { _, _, err = codegen.DecodeProgram(out.artifact) })
	tr.finish(root)
	machine.DropPredecode(p)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return out, nil
}

// summarize mirrors codegen's per-function construction summary, which
// the artifact carries.
func summarize(res *core.Result) *codegen.FuncConstruction {
	fc := &codegen.FuncConstruction{Stats: res.Stats, Cuts: len(res.Cuts)}
	for _, d := range res.Antideps {
		fc.Antideps = append(fc.Antideps, codegen.AntidepInfo{
			Read:      d.Read.LongString(),
			Write:     d.Write.LongString(),
			MustAlias: d.MustAliasPair,
		})
	}
	return fc
}

// layerSuite measures the compiler, validator, codec and simulator
// layers the same way in every workload's traced run: it replays every
// key of the compile matrix step by step on nproc goroutines, then runs
// each workload's conventional build once, fault-free, in the
// BenchmarkMachineStep configuration. Each replayed artifact must equal
// what codegen.CompileModuleOpts produces (compared outside the spans),
// so the replay cannot drift from the real pipeline unnoticed.
func layerSuite(cfg config, tr *tracer) (map[string]float64, error) {
	keys := matrixKeys(cfg.short)
	reps := make([]*replayed, len(keys))
	refs := make([]*codegen.Program, len(keys))
	err := parallel(len(keys), func(i int) error {
		k := keys[i]
		r, err := replay(tr, k.w, k.v.mo)
		if err != nil {
			return fmt.Errorf("replay %s: %w", k, err)
		}
		ref, st, err := codegen.CompileModuleOpts(k.w.Module(), "main", k.w.MemWords, k.v.mo)
		if err != nil {
			return fmt.Errorf("compile %s: %w", k, err)
		}
		if !bytes.Equal(r.artifact, codegen.EncodeProgram(ref, st)) {
			return fmt.Errorf("replay %s: artifact differs from codegen.CompileModuleOpts", k)
		}
		reps[i], refs[i] = r, ref
		return nil
	})
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	verified := 0
	for _, r := range reps {
		vals["core.cuts"] += float64(r.cuts)
		vals["codegen.repair_cuts"] += float64(r.repairCuts)
		vals["codegen.spills"] += float64(r.spills)
		vals["verify.regions"] += float64(r.regions)
		if r.verified {
			verified++
		}
	}

	mcfg := machine.Config{BufferStores: true, TrackPaths: true, Cache: machine.DefaultCache()}
	var runTime time.Duration
	var instrs int64
	for i, k := range keys {
		if k.v.name != "conventional" {
			continue
		}
		id := tr.start("machine.run", 0, tr.newTrace())
		t0 := time.Now()
		m := machine.New(refs[i], mcfg)
		_, err := m.Run(k.w.Args...)
		runTime += time.Since(t0)
		tr.finish(id)
		machine.DropPredecode(refs[i])
		if err != nil {
			return nil, fmt.Errorf("machine probe %s: %w", k.w.Name, err)
		}
		instrs += m.Stats.DynInstrs
	}
	vals["machine.ns_per_instr"] = float64(runTime.Nanoseconds()) / float64(instrs)
	vals["machine.dyn_instrs"] = float64(instrs)

	total, self := layerTimes(tr.snapshot())
	for name, layer := range map[string]string{
		"lang.ms_per_program":              "lang",
		"core.ms_per_program":              "core",
		"codegen.ms_per_program":           "codegen",
		"codegen.link_ms_per_program":      "codegen.link",
		"codegen.encode_ms_per_program":    "codegen.encode",
		"codegen.decode_ms_per_program":    "codegen.decode",
		"machine.predecode_ms_per_program": "machine.predecode",
	} {
		vals[name] = float64(self[layer].Nanoseconds()) / 1e6 / float64(len(keys))
	}
	// Only idempotent builds with marks are verified, so they are the base.
	vals["verify.ms_per_program"] = float64(self["verify"].Nanoseconds()) / 1e6 / float64(max(verified, 1))
	vals["verify.share"] = float64(self["verify"]) / float64(total["pipeline"])
	vals["trace.replay_coverage"] = 1 - float64(self["pipeline"])/float64(total["pipeline"])
	return vals, nil
}

// parallel runs fn(i) for i in [0, n) on nproc goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	next.Store(-1)
	errs := make([]error, nproc())
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || errs[g] != nil {
					return
				}
				errs[g] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
