// Package server implements idemd, the long-running idempotence-analysis
// service: an HTTP/JSON facade over the full paper pipeline. POST
// /v1/compile returns the §4 region/antidependence/cut report, POST
// /v1/simulate runs the machine simulator (optionally with faults armed)
// and returns the state digest, and POST /v1/batch fans many units onto
// the experiment engine's worker pool. GET /healthz, /readyz and
// /metrics serve liveness, drain-aware readiness and Prometheus text
// metrics.
//
// Request coalescing and artifact caching come from the shared
// buildcache: concurrent requests for the same (workload, options) key
// singleflight onto one compile, and the byte-bounded LRU keeps the
// daemon's footprint flat over an open-ended request stream. The
// middleware stack enforces per-request deadlines, sheds load with 429
// beyond a concurrency limit, and drains gracefully on SIGTERM (readyz
// flips to 503, in-flight requests complete, new connections stop).
//
// See docs/service.md for the API and metrics catalog.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/experiments"
	"idemproc/internal/fault"
	"idemproc/internal/jobs"
	"idemproc/internal/machine"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the experiment-engine pool width for /v1/batch
	// (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently served /v1/* requests; excess
	// requests are shed with 429 (default 64).
	MaxInFlight int
	// RequestTimeout is the per-request context deadline on /v1/*
	// (default 30s; <0 disables).
	RequestTimeout time.Duration
	// CacheMaxBytes bounds the compile cache (0 = unbounded).
	CacheMaxBytes int64
	// CacheDir, when non-empty, roots the persistent artifact store:
	// compiles are written behind as verified artifact files and memory
	// misses (cold start, eviction) reload from disk instead of
	// recompiling. See docs/persistence.md.
	CacheDir string
	// VerifyMode re-checks compiled programs against the §2.1 criterion
	// with the internal/verify translation validator (off by default;
	// see docs/verify.md). Full mode checks every fresh compile and
	// every disk artifact after decode.
	VerifyMode buildcache.VerifyMode
	// MaxSimSteps caps simulated dynamic instructions per request
	// (default 2^28); requests may lower but not raise it.
	MaxSimSteps int64
	// MaxJobs bounds the async job table for /v1/jobs (default 64).
	MaxJobs int
	// JobTTL is how long a finished job stays queryable before reaping
	// (default 10m).
	JobTTL time.Duration
	// Logf, when set, receives one line per lifecycle event (listen,
	// drain, shutdown). Per-request logging is intentionally absent —
	// /metrics is the observation surface.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxSimSteps <= 0 {
		c.MaxSimSteps = 1 << 28
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// The /v1 contract's fixed limits. idemd and idemfront both enforce
// them, so an over-limit request reads the same from either.
const (
	// MaxBodyBytes bounds request bodies; a larger body gets a 413.
	MaxBodyBytes = 8 << 20
	// MaxBatchUnits bounds /v1/batch and /v1/jobs fan-out.
	MaxBatchUnits = 256
	// JobPollMax caps the long-poll wait a GET /v1/jobs/{id} request may
	// ask for (under common LB idle timeouts).
	JobPollMax = 25 * time.Second
)

// Server is the idemd service core. Create with New; serve either via
// Handler (for embedding/tests) or Serve+Shutdown (for the daemon).
type Server struct {
	cfg     Config
	cache   *buildcache.Cache
	engine  *experiments.Engine
	metrics *Metrics
	jobs    *jobs.Manager
	mux     *http.ServeMux
	sem     chan struct{}

	draining atomic.Bool
	httpSrv  *http.Server
}

// New builds a server with its own bounded compile cache, batch engine
// and async job manager. Journaled jobs from a previous life are NOT
// resumed here — call RecoverJobs after warming the artifact store
// (cmd/idemd scans the disk tier first so resumed units hit artifacts
// instead of recompiling).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := buildcache.NewBoundedDisk(cfg.CacheMaxBytes, cfg.CacheDir)
	cache.SetVerifyMode(cfg.VerifyMode)
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		engine:  experiments.NewEngineWithCache(cfg.Workers, cache),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	// Made here, not in Serve, so a Shutdown or Close that lands before
	// Serve starts still reaches it: Serve then returns at once.
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.jobs = jobs.NewManager(jobs.Config{
		Dir:     cfg.CacheDir,
		MaxJobs: cfg.MaxJobs,
		TTL:     cfg.JobTTL,
		Logf:    cfg.Logf,
	}, s.engine, s.runJobUnit)
	get, post := []string{http.MethodGet}, []string{http.MethodPost}
	s.mux.Handle("/healthz", s.instrument("/healthz", get, false, s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", get, false, s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("/metrics", get, false, s.handleMetrics))
	s.mux.Handle("/v1/compile", s.instrument("/v1/compile", post, true, s.handleCompile))
	s.mux.Handle("/v1/simulate", s.instrument("/v1/simulate", post, true, s.handleSimulate))
	s.mux.Handle("/v1/batch", s.instrument("/v1/batch", post, true, s.handleBatch))
	// Job submission holds a semaphore slot only for the submit itself;
	// poll/stream/cancel are cheap waits and stay unlimited so a full
	// semaphore cannot block reading results (which is what frees work).
	s.mux.Handle("/v1/jobs", s.instrument("/v1/jobs", post, true, s.handleJobSubmit))
	s.mux.Handle("/v1/jobs/{id}", s.instrument("/v1/jobs/{id}",
		[]string{http.MethodGet, http.MethodDelete}, false, JobHandler(s.jobs, s.metrics.Chunks)))
	s.mux.Handle("/v1/jobs/{id}/stream", s.instrument("/v1/jobs/{id}/stream", get, false,
		JobStreamHandler(s.jobs, s.metrics.Chunks)))
	return s
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the compile cache (cmd/idemd logs its stats on exit;
// tests assert on it).
func (s *Server) Cache() *buildcache.Cache { return s.cache }

// Metrics exposes the daemon's metric series.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the async job manager (tests assert on its stats).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// RecoverJobs resumes journaled jobs from a previous process life. Call
// it once, after the artifact store's warm-start Scan, so the resumed
// units reload compiles from disk instead of re-running codegen.
func (s *Server) RecoverJobs() jobs.RecoverStats {
	rs := s.jobs.Recover()
	if rs.Resumed+rs.Complete+rs.Pruned > 0 {
		s.cfg.Logf("idemd: job recovery: %d resumed, %d already complete, %d units journaled, %d pruned",
			rs.Resumed, rs.Complete, rs.Units, rs.Pruned)
	}
	return rs
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.cfg.Logf("idemd: listening on %s", l.Addr())
	return s.httpSrv.Serve(l)
}

// Shutdown drains the server: readiness flips to 503 immediately (so
// load balancers stop routing), in-flight requests run to completion,
// and Serve returns once the listener is closed and connections idle.
// No request is dropped silently — everything admitted before Shutdown
// gets its response.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Logf("idemd: draining (readyz -> 503)")
	// Stop the job subsystem first: runners park (journals stay on disk
	// for the next boot to resume) and blocked pollers/streamers wake,
	// so their connections can drain instead of holding Shutdown until
	// their long-poll deadlines.
	s.jobs.Stop()
	err := s.httpSrv.Shutdown(ctx)
	if jerr := s.jobs.Close(ctx); jerr != nil && err == nil {
		err = jerr
	}
	if d := s.cache.Disk(); d != nil {
		// Let in-flight write-behind artifact writes land before exit, so
		// a restart finds everything the drained process compiled.
		if ferr := d.Flush(ctx); ferr != nil {
			s.cfg.Logf("idemd: artifact flush aborted: %v", ferr)
		} else {
			s.cfg.Logf("idemd: artifact store flushed")
		}
	}
	s.cfg.Logf("idemd: drained")
	return err
}

// Close force-closes the listener and every active connection — the
// hard-exit path a second SIGTERM during a stuck drain takes. In-flight
// requests are abandoned; their contexts are canceled by the connection
// teardown, which preempts any running simulations within the poll
// budget.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.jobs.Stop()
	return s.httpSrv.Close()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---------------------------------------------------------------------
// Middleware.

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the NDJSON stream handler
// can push each chunk through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument is the middleware idemd and idemfront share: the method
// filter (405 with Allow), the in-flight gauge and per-path status and
// latency observation. idemd wraps every route in it, the front its /v1
// routes. The path label is the route pattern, so wildcard routes like
// /v1/jobs/{id} stay one metric series.
func Instrument(path string, methods []string, inFlight *atomic.Int64,
	observe func(path string, code int, d time.Duration), h http.HandlerFunc) http.Handler {
	allow := strings.Join(methods, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		inFlight.Add(1)
		defer func() {
			inFlight.Add(-1)
			observe(path, rec.code, time.Since(start))
		}()
		allowed := false
		for _, m := range methods {
			if r.Method == m {
				allowed = true
				break
			}
		}
		if !allowed {
			rec.Header().Set("Allow", allow)
			WriteError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		h(rec, r)
	})
}

// instrument mounts one idemd route through Instrument. Limited routes
// also pass the concurrency limiter, which sheds with 429 instead of
// queueing (the client can retry against another replica; queued work
// would just grow latency unboundedly), and get the per-request
// deadline.
func (s *Server) instrument(path string, methods []string, limited bool, h http.HandlerFunc) http.Handler {
	if limited {
		h = s.limit(h)
	}
	return Instrument(path, methods, &s.metrics.InFlight, s.metrics.Observe, h)
}

func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.metrics.Shed.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "server at concurrency limit, retry later")
			return
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// writeJSON marshals v with a trailing newline. Marshaling fixed structs
// is deterministic, which is what makes response bodies byte-identical
// across runs and replicas.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes the uniform {"error": msg} response.
func WriteError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// WriteHTTPErr maps internal errors onto responses: validation errors
// keep their status, a full or closed job table sheds with 429 and a
// retry hint, cancellation/deadline becomes 503 (the request was not
// served; a draining or overloaded replica tells the client to go
// elsewhere), anything else is a 422 pipeline failure.
func WriteHTTPErr(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		WriteError(w, he.status, he.msg)
	case errors.Is(err, jobs.ErrTableFull), errors.Is(err, jobs.ErrClosed):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("request abandoned: %v", err))
	default:
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// ---------------------------------------------------------------------
// Admission: the /v1 body reader, decoder and batch parser. idemd and
// idemfront both admit bodies with them, so a body that fails to read,
// decode or validate gets the same answer from either.

// ReadBody reads a /v1 request body under MaxBodyBytes. Its error is an
// answer for WriteHTTPErr: a 413 past the bound, a 400 for a body that
// fails to read (a malformed chunked encoding, a short body).
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", MaxBodyBytes)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	return body, nil
}

// DecodeJSON strictly decodes body into v: unknown fields, and anything
// but whitespace after the one JSON value, are 400s.
func DecodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	// Not dec.More, which reports a trailing ']' or '}' as the end.
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// readJSON reads a /v1 request body and strictly decodes it into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	return DecodeJSON(body, v)
}

// ParseBatch is the one /v1/batch and /v1/jobs body parser (a job is a
// batch with a handle, so both accept the same bodies). It returns the
// units and each unit's own bytes. The whole body is decoded strictly
// first, so a malformed body gets the decoder's error; each unit is then
// decoded from its own bytes, because a whole-body decode merges the
// elements of a repeated "units" key, and a unit must mean what its
// bytes say wherever they run.
func ParseBatch(body []byte) ([]BatchUnit, []json.RawMessage, error) {
	if err := DecodeJSON(body, new(BatchRequest)); err != nil {
		return nil, nil, err
	}
	var raw struct {
		Units []json.RawMessage `json:"units"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, nil, badRequest("invalid JSON body: %v", err)
	}
	n := len(raw.Units)
	if n == 0 {
		return nil, nil, badRequest("batch has no units")
	}
	if n > MaxBatchUnits {
		return nil, nil, badRequest("batch exceeds %d units", MaxBatchUnits)
	}
	units := make([]BatchUnit, n)
	for i, u := range raw.Units {
		if err := DecodeJSON(u, &units[i]); err != nil {
			return nil, nil, err
		}
		if (units[i].Compile == nil) == (units[i].Simulate == nil) {
			return nil, nil, badRequest("unit %d: exactly one of compile or simulate is required", i)
		}
	}
	return units, raw.Units, nil
}

// ---------------------------------------------------------------------
// Health, readiness, metrics.

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render(s.cache.Stats(), s.jobs.Stats()))
}

// ---------------------------------------------------------------------
// /v1 handlers.

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := readJSON(w, r, &req); err != nil {
		WriteHTTPErr(w, err)
		return
	}
	rep, err := s.doCompile(r.Context(), &req)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// doCompile validates, builds (through the coalescing cache) and renders
// the report. Shared by the batch handler.
func (s *Server) doCompile(ctx context.Context, req *CompileRequest) (*CompileReport, error) {
	wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, nil)
	if he != nil {
		return nil, he
	}
	mo := req.Options.moduleOptions(true)
	_, st, err := s.engine.Build(ctx, wk, mo)
	if err != nil {
		return nil, err
	}
	rep := ReportForBuild(wk, mo, st)
	rep.Verified = s.cache.Verified(wk, mo)
	return rep, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := readJSON(w, r, &req); err != nil {
		WriteHTTPErr(w, err)
		return
	}
	rep, err := s.doSimulate(r.Context(), &req)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// doSimulate validates, builds the scheme's binary, arms any injections
// and runs the simulator. Shared by the batch handler.
func (s *Server) doSimulate(ctx context.Context, req *SimulateRequest) (*SimulateReport, error) {
	wk, he := resolveWorkload(req.Workload, req.Source, req.MemWords, req.Args)
	if he != nil {
		return nil, he
	}
	scheme, apply, he := req.scheme()
	if he != nil {
		return nil, he
	}
	if req.Options != nil && req.Options.Idempotent != nil {
		return nil, badRequest("options.idempotent is implied by the scheme; do not set it")
	}
	if len(req.Injections) > maxInjections {
		return nil, badRequest("at most %d injections", maxInjections)
	}
	injs := make([]fault.Injection, 0, len(req.Injections))
	for _, is := range req.Injections {
		inj, he := is.parse()
		if he != nil {
			return nil, he
		}
		injs = append(injs, inj)
	}

	mo := req.buildOptions()
	p, _, err := s.engine.Build(ctx, wk, mo)
	if err != nil {
		return nil, err
	}
	var cfg machine.Config
	if apply {
		p = fault.Apply(p, scheme)
		cfg = scheme.Config()
	}

	cfg.TrackPaths = req.TrackPaths || mo.Idempotent
	cfg.Cache = machine.DefaultCache()
	cfg.MaxSteps = s.cfg.MaxSimSteps
	if req.MaxSteps > 0 && req.MaxSteps < cfg.MaxSteps {
		cfg.MaxSteps = req.MaxSteps
	}
	if len(injs) > 0 {
		// Arm the livelock watchdog whenever faults are armed: a fault
		// that corrupts a loop bound must cost the service a bounded
		// budget, not MaxSteps worth of simulation.
		cfg.WatchdogRef = req.WatchdogRef
		if cfg.WatchdogRef <= 0 {
			cfg.WatchdogRef = 1 << 20
		}
	}

	m := machine.New(p, cfg)
	for _, inj := range injs {
		fault.Arm(m, inj)
	}
	r0, runErr := s.engine.RunMachine(ctx, m, wk.Args...)
	if errors.Is(runErr, machine.ErrPreempted) {
		// The request deadline (or a canceled batch fan-out) stopped the
		// step loop within the machine's poll stride. Surface the
		// context error so writeHTTPErr maps it to 503, and drop the
		// partial result so batch aggregation stays exact.
		s.metrics.SimPreempted.Add(1)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		// Cancellation raced the final instructions; the requester is
		// already gone, so the (complete) result is dropped all the same.
		return nil, err
	}
	rep := &SimulateReport{
		Workload: wk.Name,
		Scheme:   schemeName(req.Scheme),
		Result:   r0,
		Digest:   m.Snapshot(r0, runErr),
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	if cfg.TrackPaths {
		rep.AvgPathLen = m.Stats.AvgPathLen()
	}
	return rep, nil
}

// schemeName canonicalizes the scheme for the response ("" -> none).
func schemeName(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// runUnit executes one batch unit. It is the one unit runner behind
// /v1/batch and /v1/jobs, which is what keeps a job's result bytes
// identical to the batch's. A unit failure lands in its own slot.
func (s *Server) runUnit(ctx context.Context, u BatchUnit, index int) BatchResult {
	res := BatchResult{Index: index}
	var err error
	switch {
	case u.Compile != nil:
		res.Compile, err = s.doCompile(ctx, u.Compile)
	case u.Simulate != nil:
		res.Simulate, err = s.doSimulate(ctx, u.Simulate)
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	units, _, err := ParseBatch(body)
	if err != nil {
		WriteHTTPErr(w, err)
		return
	}
	n := len(units)

	// Fan the units onto the engine pool. Per-unit failures are recorded
	// in their slot (fn always returns nil), so one broken unit cannot
	// cancel its siblings; results land in index order regardless of the
	// pool width — the same determinism contract as the figure drivers.
	results := make([]BatchResult, n)
	_ = s.engine.ForEach(r.Context(), n, func(ctx context.Context, i int) error {
		results[i] = s.runUnit(ctx, units[i], i)
		return nil
	})
	if err := r.Context().Err(); err != nil {
		// The whole batch is abandoned on deadline/cancel: partial output
		// would not be byte-stable.
		WriteHTTPErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}
