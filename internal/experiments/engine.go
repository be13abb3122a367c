package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/fault"
	"idemproc/internal/limit"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// Engine runs experiment drivers over a bounded worker pool with a shared
// content-keyed compile cache. All figure drivers are Engine methods.
//
// Determinism contract: for a fixed workload list, every driver produces
// byte-identical formatted output for any worker count. Work units are
// indexed, each unit writes only its own result slot, and all aggregation
// (geomeans, suite splits) happens serially in index order after the pool
// drains. The compile cache only changes *when* a program is built, never
// what is built, and simulator runs on a shared read-only Program are
// independent (see the codegen.Program immutability contract).
type Engine struct {
	workers int
	// Strict makes drivers fail when a geomean input had to be clamped
	// (see Geomean): a degenerate measurement then surfaces as an error
	// instead of a footnote. Tests run strict.
	Strict bool

	cache    *buildcache.Cache
	simNanos atomic.Int64
	simRuns  atomic.Int64
}

// NewEngine returns an engine with the given worker-pool width; workers
// <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	return NewEngineWithCache(workers, buildcache.New())
}

// NewEngineWithCache returns an engine backed by an externally owned
// compile cache. The idemd service uses this to share one byte-bounded
// cache between the batch engine and the single-request handlers (and to
// scrape its stats for /metrics).
func NewEngineWithCache(workers int, cache *buildcache.Cache) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cache == nil {
		cache = buildcache.New()
	}
	return &Engine{workers: workers, cache: cache}
}

// Cache returns the engine's compile cache.
func (e *Engine) Cache() *buildcache.Cache { return e.cache }

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.workers }

// Build compiles w under mo through the shared cache, naming the workload
// in any error (so a failing figure identifies its culprit). A canceled
// ctx abandons the wait on an in-flight singleflight compile immediately
// (the compile itself still completes and is cached — see
// buildcache.Cache.Compile).
func (e *Engine) Build(ctx context.Context, w workloads.Workload, mo codegen.ModuleOptions) (*codegen.Program, *codegen.BuildStats, error) {
	p, st, err := e.cache.Compile(ctx, w, mo)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return p, st, nil
}

// conf is one configuration a figure driver simulates its workloads
// under: the build, the recovery scheme that instruments it (nil runs
// the build as compiled), the machine configuration, and whether a
// limit-study tracker observes the run (Fig. 4).
type conf struct {
	mo         codegen.ModuleOptions
	scheme     *fault.Scheme
	cfg        machine.Config
	limitStudy bool
}

// simRun is what a driver reads from one simulation. It is copied out of
// the machine and the tracker, so a slot pins neither one's memory.
type simRun struct {
	machine.Stats
	limits [3]limit.Result
}

// simulate runs every (workload, configuration) pair as its own pool
// unit and returns runs[i][j], ws[i] under confs[j]. Units are ordered
// workload-major, so one workload's costly runs start side by side
// instead of queueing behind each other. Unit k builds its program
// through the cache, runs it on a fresh machine with the drivers' L1
// cache, and copies the run into its own slot; the caller aggregates
// the slots in index order, which reads the same at any pool width.
func (e *Engine) simulate(ws []workloads.Workload, confs ...conf) ([][]simRun, error) {
	n := len(confs)
	runs := make([][]simRun, len(ws))
	for i := range runs {
		runs[i] = make([]simRun, n)
	}
	err := e.ForEach(context.Background(), len(ws)*n, func(ctx context.Context, k int) error {
		w, c := ws[k/n], confs[k%n]
		p, _, err := e.Build(ctx, w, c.mo)
		if err != nil {
			return err
		}
		if c.scheme != nil {
			p = fault.Apply(p, *c.scheme)
		}
		var tr *limit.Tracker
		if c.limitStudy {
			tr = limit.NewTracker()
			c.cfg.Tracer = tr
		}
		c.cfg.Cache = machine.DefaultCache()
		start := time.Now()
		m := machine.New(p, c.cfg)
		_, err = m.Run(w.Args...)
		e.simNanos.Add(time.Since(start).Nanoseconds())
		e.simRuns.Add(1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		r := &runs[k/n][k%n]
		r.Stats = m.Stats
		if tr != nil {
			r.limits = tr.Results()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// RunMachine executes an already-prepared machine (configuration set,
// injections armed) under ctx, accounting the wall time to the simulate
// stage. The machine's step loop polls ctx every 4096 dynamic
// instructions, so a canceled or expired ctx — a request
// deadline, an abandoned /v1/batch fan-out — stops the simulation with
// machine.ErrPreempted within that instruction budget instead of
// running the workload to completion.
func (e *Engine) RunMachine(ctx context.Context, m *machine.Machine, args ...uint64) (uint64, error) {
	m.BindContext(ctx)
	start := time.Now()
	r0, err := m.Run(args...)
	e.simNanos.Add(time.Since(start).Nanoseconds())
	e.simRuns.Add(1)
	return r0, err
}

// ForEach evaluates fn(ctx, i) for every i in [0, n) on the worker pool.
// Each unit must write results only into its own index slot; callers
// aggregate in index order afterwards, which is what makes output
// independent of the worker count. The first error cancels ctx so
// outstanding units are skipped; among units that genuinely ran, the
// lowest-index non-cancellation error is returned. (Callers that want
// per-unit error collection instead of fail-fast — the idemd /v1/batch
// handler — record errors into their slots and return nil from fn.)
func (e *Engine) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// strictGeomean enforces the engine's strict mode for a driver that had
// to clamp degenerate geomean inputs.
func (e *Engine) strictGeomean(driver string, clamped int) error {
	if e.Strict && clamped > 0 {
		return fmt.Errorf("experiments: %s: %d degenerate geomean input(s) clamped to %g (strict mode)", driver, clamped, geomeanEps)
	}
	return nil
}

// Timing is the per-stage wall-time breakdown of everything an engine has
// run so far.
type Timing struct {
	// CompileTime/SimTime are summed across workers, so each can exceed
	// elapsed wall time under parallelism.
	CompileTime time.Duration
	SimTime     time.Duration
	// SimRuns counts simulator executions.
	SimRuns int64
	// CacheHits/CacheMisses/DistinctPrograms describe the compile cache:
	// misses equal distinct programs built; hits are compiles avoided.
	CacheHits, CacheMisses int64
	DistinctPrograms       int
	// Workers is the pool width the engine ran with.
	Workers int
}

// Timing snapshots the engine's counters.
func (e *Engine) Timing() Timing {
	cs := e.cache.Stats()
	return Timing{
		CompileTime:      cs.CompileTime,
		SimTime:          time.Duration(e.simNanos.Load()),
		SimRuns:          e.simRuns.Load(),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		DistinctPrograms: cs.Distinct,
		Workers:          e.workers,
	}
}

// Format renders the breakdown as a small report (the -timing flag of
// cmd/idembench prints this).
func (t Timing) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timing (per-stage, summed across %d workers)\n", t.Workers)
	fmt.Fprintf(&b, "  compile:  %12s  (%d distinct programs built)\n", t.CompileTime.Round(time.Microsecond), t.DistinctPrograms)
	fmt.Fprintf(&b, "  simulate: %12s  (%d runs)\n", t.SimTime.Round(time.Microsecond), t.SimRuns)
	total := t.CacheHits + t.CacheMisses
	ratio := 0.0
	if total > 0 {
		ratio = 100 * float64(t.CacheHits) / float64(total)
	}
	fmt.Fprintf(&b, "  build cache: %d hits / %d misses (%.1f%% hit rate)\n", t.CacheHits, t.CacheMisses, ratio)
	return b.String()
}
