package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/experiments"
	"idemproc/internal/machine"
	"idemproc/internal/server"
	"idemproc/internal/workloads"
)

// The work of a run is fixed by -seconds, not by a clock: two commits
// given the same -seconds do identical work, so their counts and digests
// compare exactly. These sizes were measured on the 2-core reference
// host (README.md): at the speed calibrationSeconds stands for, the
// timed phase then lasts about -seconds.
const (
	figuresRoundSeconds = 2.7 // one figure round over the palette
	compileRoundSeconds = 1.7 // one round of the 310-key matrix
	serveRequestsPerSec = 70
	churnRequestsPerSec = 80
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
)

func sized(seconds, per float64) int { return max(1, int(math.Round(seconds/per))) }

// palette is the six workloads idemload's simulate requests draw from.
// They span SPEC INT, SPEC FP and PARSEC and simulate in 3-200 ms, so a
// figure round over them takes seconds (all 31 take ~25 s) while every
// driver still sees all three suites.
var palette = []string{"bzip2", "mcf", "libquantum", "milc", "blackscholes", "swaptions"}

// shortPalette replaces the palette in the test-sized runs.
var shortPalette = []string{"blackscholes", "libquantum"}

func byNames(names []string) []workloads.Workload {
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			panic("bench: no workload " + n)
		}
		out[i] = w
	}
	return out
}

// variant is one compile configuration, both as library options and as
// the idemd request options that select it.
type variant struct {
	name string
	mo   codegen.ModuleOptions
	spec *server.OptionsSpec
}

func boolPtr(b bool) *bool { return &b }

// variants are the nine option sets internal/verify's
// TestWorkloadMatrixClean must verify clean, plus the conventional
// build.
var variants = func() []variant {
	def := core.DefaultOptions()
	with := func(f func(*core.Options)) core.Options { o := def; f(&o); return o }
	vs := []variant{
		{"default", codegen.ModuleOptions{Idempotent: true, Core: def}, nil},
		{"purecalls", codegen.ModuleOptions{Idempotent: true, Core: def, PureCalls: true}, &server.OptionsSpec{PureCalls: true}},
		{"nounroll", codegen.ModuleOptions{Idempotent: true, Core: with(func(o *core.Options) { o.UnrollLoops = false })},
			&server.OptionsSpec{Core: &server.CoreOptionsSpec{UnrollLoops: boolPtr(false)}}},
	}
	for _, n := range []int{8, 16, 32, 64} {
		vs = append(vs, variant{fmt.Sprintf("maxregion%d", n),
			codegen.ModuleOptions{Idempotent: true, Core: with(func(o *core.Options) { o.MaxRegionSize = n })},
			&server.OptionsSpec{Core: &server.CoreOptionsSpec{MaxRegionSize: n}}})
	}
	return append(vs,
		variant{"noloopheur", codegen.ModuleOptions{Idempotent: true, Core: with(func(o *core.Options) { o.LoopHeuristic = false })},
			&server.OptionsSpec{Core: &server.CoreOptionsSpec{LoopHeuristic: boolPtr(false)}}},
		variant{"redelim-off", codegen.ModuleOptions{Idempotent: true, Core: with(func(o *core.Options) { o.RedElim = false })},
			&server.OptionsSpec{Core: &server.CoreOptionsSpec{RedElim: boolPtr(false)}}},
		variant{"conventional", codegen.ModuleOptions{Core: def}, &server.OptionsSpec{Idempotent: boolPtr(false)}},
	)
}()

func variantNamed(name string) variant {
	for _, v := range variants {
		if v.name == name {
			return v
		}
	}
	panic("bench: no variant " + name)
}

// checkVariants confirms that each variant's request options select the
// same compile as its library options.
func checkVariants() error {
	for _, v := range variants {
		got := (&server.CompileRequest{Workload: "mcf", Options: v.spec}).RouteKey().Options
		if got != v.mo.Fingerprint() {
			return fmt.Errorf("variant %s: request options fingerprint %q, library %q", v.name, got, v.mo.Fingerprint())
		}
	}
	return nil
}

// key is one entry of the compile matrix.
type key struct {
	w workloads.Workload
	v variant
}

func (k key) String() string { return k.w.Name + "/" + k.v.name }

// matrixKeys is the compile matrix: every workload under every variant.
func matrixKeys(short bool) []key {
	ws := workloads.All()
	if short {
		ws = byNames(shortPalette)
	}
	var keys []key
	for _, w := range ws {
		for _, v := range variants {
			keys = append(keys, key{w, v})
		}
	}
	return keys
}

// driver is one figure of idembench -all.
type driver struct {
	name string
	run  func(e *experiments.Engine, ws []workloads.Workload) (string, error)
}

// drivers are idembench -all without -resilience, in its order. Like
// idembench, the sweep runs on lbm, one of its two representatives (the
// other, gcc, costs more than a whole round of the palette).
var drivers = []driver{
	{"table2", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		rows, err := e.Table2(ws)
		return experiments.FormatTable2(rows), err
	}},
	{"fig4", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		res, err := e.Fig4(ws)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}},
	{"fig8", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		rows, err := e.Fig8(ws)
		return experiments.FormatFig8(rows), err
	}},
	{"fig9", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		res, err := e.Fig9(ws)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}},
	{"fig10", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		res, err := e.Fig10(ws)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}},
	{"fig12", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		res, err := e.Fig12(ws)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}},
	{"characteristics", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		rows, err := e.Characteristics(ws)
		return experiments.FormatCharacteristics(rows), err
	}},
	{"ablations", func(e *experiments.Engine, ws []workloads.Workload) (string, error) {
		var out string
		for _, a := range []struct {
			title, on, off string
			run            func([]workloads.Workload) ([]experiments.AblationRow, error)
		}{
			{"Ablation: §4.3 loop heuristic (avg dynamic path length)", "heuristic on", "off", e.AblationLoopHeuristic},
			{"Ablation: §5 loop unroll (avg dynamic path length)", "unroll on", "off", e.AblationUnroll},
			{"Ablation: Fig. 5 redundancy elimination (cuts placed)", "redelim on", "off", e.AblationRedElim},
			{"Ablation: §4.4 allocation constraint (cycles)", "constrained", "relaxed", e.AblationRegalloc},
			{"Ablation: pure-call extension (avg dynamic path length)", "pure-calls on", "off", e.AblationPureCalls},
		} {
			rows, err := a.run(ws)
			if err != nil {
				return "", err
			}
			out += experiments.FormatAblation(a.title, a.on, a.off, rows) + "\n"
		}
		return out, nil
	}},
	{"sweep", func(e *experiments.Engine, _ []workloads.Workload) (string, error) {
		w := byNames([]string{"lbm"})[0]
		pts, err := e.RegionSizeSweep(w, []int{0, 128, 32, 8, 4})
		return experiments.FormatSweep(w.Name, pts), err
	}},
}

// runFigures times each figure driver on a fresh experiments engine per
// round, as an idembench run would, and checks every table's digest.
func runFigures(cfg config, tr *tracer) (*observation, error) {
	ws := byNames(palette)
	if cfg.short {
		ws = byNames(shortPalette)
	}
	rounds := sized(cfg.seconds, figuresRoundSeconds)
	o := &observation{
		shape:  shape{Loop: "closed", Clients: 1, Rounds: rounds, SetupReps: setupReps},
		detail: map[string]float64{},
	}
	// Set-up is a warm-up Fig. 8 on a throwaway engine, so the heap and
	// the lazily built runtime state settle before the clock starts.
	o.calibrate(cfg)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := experiments.NewEngine(0).Fig8(ws); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
	}

	o.digests.Figures = map[string]string{}
	perDriver := map[string][]float64{}
	var cs buildcache.Stats
	var stage, simTime time.Duration
	var simRuns int64
	workers := 0
	var driverTime time.Duration
	round := func() {
		t0 := time.Now()
		e := experiments.NewEngine(0)
		w := window{}
		for _, d := range drivers {
			id := tr.start("experiments."+d.name, 0, tr.newTrace())
			s := time.Now()
			out, err := d.run(e, ws)
			dt := time.Since(s)
			tr.finish(id)
			driverTime += dt
			o.attempted++
			if err != nil {
				o.fail("%s: %v", d.name, err)
				continue
			}
			w.ops++
			o.lat = append(o.lat, sample{d.name, dt, len(o.windows)})
			perDriver[d.name] = append(perDriver[d.name], dt.Seconds())
			sum := sha256.Sum256([]byte(out))
			o.digests.Figures[d.name] = hex.EncodeToString(sum[:])
			if cfg.exp != nil && cfg.exp.Figures[d.name] != o.digests.Figures[d.name] {
				o.fail("%s: table digest %s, want %s", d.name, o.digests.Figures[d.name], cfg.exp.Figures[d.name])
			}
		}
		w.dur = time.Since(t0)
		o.windows = append(o.windows, w)
		t := e.Timing()
		stage += t.CompileTime + t.SimTime
		simTime += t.SimTime
		simRuns += t.SimRuns
		workers = t.Workers
		addStats(&cs, e.Cache().Stats())
	}
	for r := 0; r < rounds; r++ {
		o.calibrate(cfg)
		rss, err := roundPeakRSS(round)
		if err != nil {
			return nil, err
		}
		o.rssMiB = append(o.rssMiB, rss)
	}
	o.calibrate(cfg)

	for name, ts := range perDriver {
		o.detail["experiments."+name+"_s"] = median(ts)
	}
	o.detail["experiments.sim_s"] = simTime.Seconds() / float64(rounds)
	o.detail["experiments.compile_s"] = cs.CompileTime.Seconds() / float64(rounds)
	o.detail["experiments.sim_runs"] = float64(simRuns) / float64(rounds)
	o.detail["experiments.driver_coverage"] = driverTime.Seconds() / o.elapsed().Seconds()
	o.layers = cacheLayers(cs, o.attempted, cs.CompileTime, cs.Compiles)
	o.layers["experiments.pool_busy"] = stage.Seconds() / (o.elapsed().Seconds() * float64(workers))
	return o, nil
}

// runCompile compiles the whole matrix once per round on a fresh
// full-verification compile cache, nproc keys at a time, and checks that
// every idempotent build verified and that the artifacts match the
// pinned digest.
func runCompile(cfg config, tr *tracer) (*observation, error) {
	keys := matrixKeys(cfg.short)
	rounds := sized(cfg.seconds, compileRoundSeconds)
	o := &observation{
		shape:  shape{Loop: "closed", Clients: nproc(), Rounds: rounds, SetupReps: setupReps},
		detail: map[string]float64{},
	}
	// Set-up is a warm-up compile of each workload's default build on a
	// throwaway cache, so the heap and the lazily built runtime state
	// settle before the clock starts.
	var warm []key
	for _, k := range keys {
		if k.v.name == "default" {
			warm = append(warm, k)
		}
	}
	o.calibrate(cfg)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		c := buildcache.New()
		c.SetVerifyMode(buildcache.VerifyFull)
		err := parallel(len(warm), func(i int) error {
			p, _, err := c.Compile(context.Background(), warm[i].w, warm[i].v.mo)
			if err == nil {
				machine.DropPredecode(p)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
	}

	order := newRNG(cfg.seed).permutation(len(keys))
	var cs buildcache.Stats
	for r := 0; r < rounds; r++ {
		c := buildcache.New()
		c.SetVerifyMode(buildcache.VerifyFull)
		progs := make([]*codegen.Program, len(keys))
		stats := make([]*codegen.BuildStats, len(keys))
		errs := make([]error, len(keys))
		lat := make([]time.Duration, len(keys))
		o.calibrate(cfg)
		win := len(o.windows)
		rss, err := roundPeakRSS(func() {
			t0 := time.Now()
			_ = parallel(len(keys), func(i int) error {
				k := order[i]
				id := tr.start("buildcache.Compile", 0, tr.newTrace())
				s := time.Now()
				progs[k], stats[k], errs[k] = c.Compile(context.Background(), keys[k].w, keys[k].v.mo)
				lat[k] = time.Since(s)
				tr.finish(id)
				return nil
			})
			o.windows = append(o.windows, window{len(keys), time.Since(t0)})
		})
		if err != nil {
			return nil, err
		}
		o.rssMiB = append(o.rssMiB, rss)

		// The checks and the digest run after the round's clock stops.
		h := sha256.New()
		for i, k := range keys {
			o.attempted++
			if errs[i] != nil {
				o.fail("%s: %v", k, errs[i])
				continue
			}
			o.lat = append(o.lat, sample{k.String(), lat[i], win})
			if progs[i].Marks > 0 && !c.Verified(k.w, k.v.mo) {
				o.fail("%s: idempotent build not verified", k)
			}
			sum := sha256.Sum256(codegen.EncodeProgram(progs[i], stats[i]))
			h.Write(sum[:])
			// The round's cache is dropped, so drop its programs' predecoded
			// forms too; the predecode memo would otherwise keep every round's
			// programs alive.
			machine.DropPredecode(progs[i])
		}
		o.digests.Compile = hex.EncodeToString(h.Sum(nil))
		if cfg.exp != nil && o.digests.Compile != cfg.exp.Compile {
			o.fail("round %d: artifact digest %s, want %s", r, o.digests.Compile, cfg.exp.Compile)
		}
		addStats(&cs, c.Stats())
	}
	o.calibrate(cfg)

	o.layers = cacheLayers(cs, o.attempted, cs.CompileTime, cs.Compiles)
	o.detail["verify.ms_per_check"] = float64(cs.VerifyNanos) / 1e6 / float64(max(cs.VerifyChecked, 1))
	o.detail["buildcache.verify_share"] = float64(cs.VerifyNanos) / float64(cs.CompileTime)
	return o, nil
}

// addStats accumulates the cache counters the per-layer metrics use.
func addStats(sum *buildcache.Stats, s buildcache.Stats) {
	sum.Hits += s.Hits
	sum.Misses += s.Misses
	sum.Compiles += s.Compiles
	sum.Evictions += s.Evictions
	sum.DiskHits += s.DiskHits
	sum.DiskWrites += s.DiskWrites
	sum.VerifyChecked += s.VerifyChecked
	sum.VerifyNanos += s.VerifyNanos
	sum.CompileTime += s.CompileTime
}

// cacheLayers derives the compile-cache and verify per-layer metrics
// from the counters of a run's timed ops, and the cost of one compile
// from compileTime over compiles (a warm workload passes its set-up's
// compiles here, having none in its timed phase).
func cacheLayers(st buildcache.Stats, ops int, compileTime time.Duration, compiles int64) map[string]float64 {
	perOp := func(n int64) float64 { return float64(n) / float64(max(ops, 1)) }
	m := map[string]float64{
		"buildcache.compiles_per_op":    perOp(st.Compiles),
		"buildcache.evictions_per_op":   perOp(st.Evictions),
		"buildcache.disk_hits_per_op":   perOp(st.DiskHits),
		"buildcache.disk_writes_per_op": perOp(st.DiskWrites),
		"verify.checks_per_op":          perOp(st.VerifyChecked),
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		m["buildcache.hit_ratio"] = float64(st.Hits) / float64(lookups)
	}
	if compiles > 0 {
		m["buildcache.compile_ms_per_compile"] = float64(compileTime.Nanoseconds()) / 1e6 / float64(compiles)
	}
	return m
}
