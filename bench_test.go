// Package idemproc's root benchmarks regenerate every table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`); each
// benchmark reports the figure's headline aggregates as custom metrics
// and logs the full table (visible with -v). cmd/idembench prints the
// same tables directly.
//
// Pass -workers=N to fan the per-workload build/run units of each figure
// out over N goroutines (0 = GOMAXPROCS); every figure's bytes are
// identical for any width, so the flag only changes wall time. Each
// benchmark builds through a fresh engine so b.N iterations after the
// first measure the warm-cache (simulate-only) cost.
package idemproc

import (
	"context"
	"flag"
	"math/rand/v2"
	"runtime"
	"testing"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/experiments"
	"idemproc/internal/fault"
	"idemproc/internal/limit"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// benchWorkers is the worker-pool width used by every benchmark's
// experiment engine. 0 defers to GOMAXPROCS.
var benchWorkers = flag.Int("workers", 1, "experiment-engine worker pool width for benchmarks (0 = GOMAXPROCS)")

// benchEngine returns a fresh parallel engine for one benchmark, and
// logs its stage timing (compile vs simulate, cache hits) when the
// benchmark finishes under -v.
func benchEngine(b *testing.B) *experiments.Engine {
	b.Helper()
	e := experiments.NewEngine(*benchWorkers)
	b.Cleanup(func() { b.Log("\n" + e.Timing().Format()) })
	return e
}

// BenchmarkMachineStep measures the raw simulator hot loop: dynamic
// instructions per second of fault-free execution on an idempotent
// binary with the experiment cache model, the configuration every figure
// driver funnels through. It reports ns/step and steps/sec (the figure
// of merit the predecoded engine is tuned for), and b.ReportAllocs makes
// any per-step heap allocation visible as allocs/op.
func BenchmarkMachineStep(b *testing.B) {
	cache := buildcache.New()
	w, ok := workloads.ByName("gcc")
	if !ok {
		b.Fatal("workload gcc missing")
	}
	p, _, err := cache.Compile(context.Background(), w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Config{BufferStores: true, TrackPaths: true, Cache: machine.DefaultCache()}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		m := machine.New(p, cfg)
		if _, err := m.Run(w.Args...); err != nil {
			b.Fatal(err)
		}
		if m.Stats.Marks == 0 {
			b.Fatal("binary executed no MARKs: the store buffer never commits")
		}
		steps += m.Stats.DynInstrs
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if steps > 0 {
		nsPerStep := float64(b.Elapsed().Nanoseconds()) / float64(steps)
		b.ReportMetric(nsPerStep, "ns/step")
		b.ReportMetric(1e3/nsPerStep, "Minstr/sec")
		// Whole-run heap allocations amortized per step: per-Machine setup
		// is a few dozen allocs over millions of steps, so any per-step
		// allocation regression shows up as a jump of six orders of
		// magnitude. The TestStepZeroAllocs guard pins the same contract.
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(steps), "allocs/step")
	}
}

// BenchmarkMachineFaulted measures what an injected fault costs per
// simulated instruction: one mcf build under idempotence recovery, run
// fault-free (free) and with the load generator's fault (flip: one
// register bit flip at a seeded step in [100, 20100), the shape half of
// idemload's simulations carry). Both report ns/step; their ratio is
// the per-instruction price of the fault machinery over a whole run.
func BenchmarkMachineFaulted(b *testing.B) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("workload mcf missing")
	}
	p, _, err := buildcache.New().Compile(context.Background(), w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	p = fault.Apply(p, fault.SchemeIdempotence)
	cfg := machine.Config{BufferStores: true, TrackPaths: true, Recovery: machine.RecoverIdempotence,
		Cache: machine.DefaultCache(), WatchdogRef: 1 << 20}
	run := func(b *testing.B, flip bool) {
		rng := rand.New(rand.NewPCG(1, 0))
		var steps int64
		for i := 0; i < b.N; i++ {
			m := machine.New(p, cfg)
			if flip {
				m.InjectFaultMask(100+rng.Int64N(20000), 1<<rng.UintN(32))
			}
			if _, err := m.Run(w.Args...); err != nil {
				b.Fatal(err)
			}
			if flip && m.Stats.Faults == 0 {
				b.Fatal("the injected fault never fired")
			}
			steps += m.Stats.DynInstrs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
	b.Run("free", func(b *testing.B) { run(b, false) })
	b.Run("flip", func(b *testing.B) { run(b, true) })
}

// BenchmarkFig4LimitStudy regenerates Figure 4: dynamic idempotent path
// lengths in the limit, under the three clobber categories.
func BenchmarkFig4LimitStudy(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig4(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean[limit.Semantic], "gm-semantic")
		b.ReportMetric(res.Geomean[limit.SemanticCalls], "gm-sem+calls")
		b.ReportMetric(res.Geomean[limit.SemanticArtificial], "gm-artificial")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig8PathCDF regenerates Figure 8: the execution-time-weighted
// distribution of dynamic path lengths of the constructed regions.
func BenchmarkFig8PathCDF(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Fig8(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		under10 := 0.0
		for _, r := range rows {
			under10 += r.FracUnder10
		}
		b.ReportMetric(100*under10/float64(len(rows)), "avg-%time-on-≤10-paths")
		if i == 0 {
			b.Log("\n" + experiments.FormatFig8(rows))
		}
	}
}

// BenchmarkFig9PathVsIdeal regenerates Figure 9: constructed vs ideal
// average path lengths.
func BenchmarkFig9PathVsIdeal(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig9(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeomeanConstructed, "gm-constructed")
		b.ReportMetric(res.GeomeanIdeal, "gm-ideal")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig10Overheads regenerates Figure 10: execution-time and
// dynamic-instruction overheads of the idempotent compilation.
func BenchmarkFig10Overheads(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig10(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallTime, "gm-time-ovh-%")
		b.ReportMetric(res.OverallInstr, "gm-instr-ovh-%")
		b.ReportMetric(res.SuiteTime[workloads.SpecInt], "specint-time-%")
		b.ReportMetric(res.SuiteTime[workloads.SpecFP], "specfp-time-%")
		b.ReportMetric(res.SuiteTime[workloads.Parsec], "parsec-time-%")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig12Recovery regenerates Figure 12: recovery overheads of
// INSTRUCTION-TMR, CHECKPOINT-AND-LOG and IDEMPOTENCE over the DMR
// detection baseline.
func BenchmarkFig12Recovery(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig12(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoTMR, "gm-tmr-ovh-%")
		b.ReportMetric(res.GeoCL, "gm-cl-ovh-%")
		b.ReportMetric(res.GeoIdem, "gm-idem-ovh-%")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkTable2Classification regenerates the Table 2 instantiation:
// antidependence classification by storage resource.
func BenchmarkTable2Classification(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Table2(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		semantic, cuts := 0, 0
		for _, r := range rows {
			semantic += r.MemoryAntideps
			cuts += r.CutsPlaced
		}
		b.ReportMetric(float64(semantic), "semantic-antideps")
		b.ReportMetric(float64(cuts), "cuts")
		if i == 0 {
			b.Log("\n" + experiments.FormatTable2(rows))
		}
	}
}

// BenchmarkAblationLoopHeuristic measures the §4.3 loop-nesting heuristic
// (dynamic path length with it on vs off).
func BenchmarkAblationLoopHeuristic(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationLoopHeuristic(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var on, off []float64
		for _, r := range rows {
			on = append(on, r.On)
			off = append(off, r.Off)
		}
		b.ReportMetric(experiments.Geomean(on), "gm-pathlen-on")
		b.ReportMetric(experiments.Geomean(off), "gm-pathlen-off")
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Ablation: §4.3 loop heuristic (avg dynamic path length)", "heuristic on", "off", rows))
		}
	}
}

// BenchmarkAblationLoopUnroll measures the §5 single unroll before
// case-3 cuts.
func BenchmarkAblationLoopUnroll(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationUnroll(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var on []float64
		for _, r := range rows {
			on = append(on, r.On)
		}
		b.ReportMetric(experiments.Geomean(on), "gm-pathlen-on")
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Ablation: §5 loop unroll (avg dynamic path length)", "unroll on", "off", rows))
		}
	}
}

// BenchmarkAblationRedElim measures the Fig. 5 redundancy elimination
// (cuts required with it on vs off).
func BenchmarkAblationRedElim(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationRedElim(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var on, off []float64
		for _, r := range rows {
			on = append(on, r.On)
			off = append(off, r.Off)
		}
		b.ReportMetric(experiments.Geomean(on), "gm-cuts-on")
		b.ReportMetric(experiments.Geomean(off), "gm-cuts-off")
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Ablation: Fig. 5 redundancy elimination (cuts placed)", "redelim on", "off", rows))
		}
	}
}

// BenchmarkAblationRegalloc isolates the §4.4 allocation constraint
// (cycles with the constraint vs relaxed, same regions).
func BenchmarkAblationRegalloc(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationRegalloc(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range rows {
			if r.Off > 0 {
				ratios = append(ratios, r.On/r.Off)
			}
		}
		b.ReportMetric(100*(experiments.Geomean(ratios)-1), "gm-constraint-cost-%")
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Ablation: §4.4 allocation constraint (cycles)", "constrained", "relaxed", rows))
		}
	}
}

// BenchmarkRegionSizeSweep measures the §6.2 path-length vs overhead
// trade-off on a representative workload.
func BenchmarkRegionSizeSweep(b *testing.B) {
	e := benchEngine(b)
	w, _ := workloads.ByName("gcc")
	for i := 0; i < b.N; i++ {
		pts, err := e.RegionSizeSweep(w, []int{0, 64, 16, 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].AvgPathLen, "pathlen-unbounded")
		b.ReportMetric(pts[3].AvgPathLen, "pathlen-cap4")
		b.ReportMetric(pts[3].TimeOvhPct, "timeovh-cap4-%")
		if i == 0 {
			b.Log("\n" + experiments.FormatSweep(w.Name, pts))
		}
	}
}

// BenchmarkAblationPureCalls measures the pure-call inter-procedural
// extension (dynamic path length with it on vs off).
func BenchmarkAblationPureCalls(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationPureCalls(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range rows {
			if r.Off > 0 {
				ratios = append(ratios, r.On/r.Off)
			}
		}
		b.ReportMetric(experiments.Geomean(ratios), "gm-pathlen-gain")
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Ablation: pure-call extension (avg dynamic path length)", "pure-calls on", "off", rows))
		}
	}
}
