// The HTTP front tier: routes /v1 traffic across an idemd replica fleet
// by buildcache content key, splits /v1/batch into per-replica
// sub-batches, and keeps responses byte-identical to a single-process
// run. See the package comment in ring.go and docs/sharding.md.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
	"idemproc/internal/server"
)

// Config sizes the front tier. Zero values select the documented
// defaults. The body, batch and long-poll bounds are the replicas' own
// (server.MaxBodyBytes, MaxBatchUnits, JobPollMax).
type Config struct {
	// Backends are the replica addresses (host:port). At least one.
	Backends []string
	// HealthInterval is the /readyz poll period (default 250ms).
	HealthInterval time.Duration
	// RequestTimeout is the per-request deadline at the front (default
	// 60s — above the replica default so a replica-side 503 surfaces
	// before the front gives up; <0 disables).
	RequestTimeout time.Duration
	// MaxJobs bounds the front-side job table (default 64). Each front
	// job fans out per-owner sub-jobs to the replicas.
	MaxJobs int
	// JobTTL is how long a terminal front job stays queryable (default
	// 10m, matching the replica default).
	JobTTL time.Duration
	// Logf receives lifecycle and rebalance lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// healthTimeout bounds one readiness probe.
const healthTimeout = 2 * time.Second

// backend is one replica as the router sees it: its address and the
// router's current health belief.
type backend struct {
	id      string
	base    string
	healthy atomic.Bool
}

// Front is the sharded front tier. Create with New; serve via Handler
// (embedding/tests) or Serve+Shutdown (the daemon). New starts the
// health-check loop — call Shutdown or Close even when only Handler is
// used, or the loop leaks.
type Front struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	client   *http.Client
	metrics  *Metrics
	mux      *http.ServeMux
	jobs     *jobs.Manager

	draining atomic.Bool
	httpSrv  *http.Server
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a front over the configured backends and starts its
// health loop. Backends start healthy (optimistically — a dead one
// fails its first probe or its first request, whichever comes first).
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends)
	if err != nil {
		return nil, err
	}
	f := &Front{
		cfg:      cfg,
		ring:     ring,
		backends: map[string]*backend{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
	}
	// Made here, not in Serve, so a Shutdown or Close that lands before
	// Serve starts still reaches it: Serve then returns at once.
	f.httpSrv = &http.Server{Handler: f.mux, ReadHeaderTimeout: 10 * time.Second}
	// The front's job table tracks externally fed jobs only (no engine,
	// no journal — durability lives replica-side, where the work runs).
	f.jobs = jobs.NewManager(jobs.Config{
		MaxJobs: cfg.MaxJobs,
		TTL:     cfg.JobTTL,
		Logf:    cfg.Logf,
	}, nil, nil)
	for _, id := range ring.Replicas() {
		b := &backend{id: id, base: "http://" + id}
		b.healthy.Store(true)
		f.backends[id] = b
	}
	// The probes and /metrics stay outside the /v1 middleware, so the
	// front's page counts only the /v1 traffic it serves.
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	get, post := []string{http.MethodGet}, []string{http.MethodPost}
	for _, rt := range []struct {
		path    string
		methods []string
		h       http.HandlerFunc
	}{
		{"/v1/compile", post, f.proxySingle("/v1/compile")},
		{"/v1/simulate", post, f.proxySingle("/v1/simulate")},
		{"/v1/batch", post, f.handleBatch},
		{"/v1/jobs", post, f.handleJobSubmit},
		{"/v1/jobs/{id}", []string{http.MethodGet, http.MethodDelete}, server.JobHandler(f.jobs, nil)},
		{"/v1/jobs/{id}/stream", get, server.JobStreamHandler(f.jobs, nil)},
	} {
		f.mux.Handle(rt.path, server.Instrument(rt.path, rt.methods, &f.metrics.InFlight, f.metrics.Observe, rt.h))
	}

	f.wg.Add(1)
	go f.healthLoop()
	return f, nil
}

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler { return f.mux }

// Metrics exposes the front's metric series (tests assert on it).
func (f *Front) Metrics() *Metrics { return f.metrics }

// Ring exposes the routing ring (tests pin ownership against it).
func (f *Front) Ring() *Ring { return f.ring }

// Jobs exposes the front-side job manager (tests assert on its stats).
func (f *Front) Jobs() *jobs.Manager { return f.jobs }

// Serve accepts connections on l until Shutdown; returns
// http.ErrServerClosed after a clean drain.
func (f *Front) Serve(l net.Listener) error {
	f.cfg.Logf("idemfront: listening on %s, %d backends", l.Addr(), f.ring.Size())
	return f.httpSrv.Serve(l)
}

// Shutdown drains the front: readiness flips to 503, in-flight
// requests complete, the health loop stops.
func (f *Front) Shutdown(ctx context.Context) error {
	f.draining.Store(true)
	f.stopOnce.Do(func() { close(f.stop) })
	f.cfg.Logf("idemfront: draining (readyz -> 503)")
	// Stopping the job manager cancels every merger (each best-effort
	// cancels its replica sub-job) and wakes parked pollers/streamers so
	// their in-flight requests can complete inside the drain window.
	f.jobs.Stop()
	err := f.httpSrv.Shutdown(ctx)
	if jerr := f.jobs.Close(ctx); jerr != nil && err == nil {
		err = jerr
	}
	f.wg.Wait()
	f.cfg.Logf("idemfront: drained")
	return err
}

// Close force-closes the listener, connections and health loop.
func (f *Front) Close() error {
	f.draining.Store(true)
	f.stopOnce.Do(func() { close(f.stop) })
	f.jobs.Stop()
	err := f.httpSrv.Close()
	f.wg.Wait()
	return err
}

// ---------------------------------------------------------------------
// Health.

func (f *Front) healthLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		f.sweep()
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
	}
}

// sweep probes every backend's /readyz once. A draining replica (503)
// or an unreachable one is marked out; its keys deterministically
// rehash to the surviving owners on the next request.
func (f *Front) sweep() {
	for _, id := range f.ring.Replicas() {
		b := f.backends[id]
		f.setHealth(b, f.probe(b), "readyz")
	}
}

func (f *Front) probe(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	status, _, err := f.call(ctx, http.MethodGet, b.base+"/readyz", nil)
	return err == nil && status == http.StatusOK
}

// setHealth records a health transition: the ring generation advances
// and the rebalance counter ticks exactly when the effective replica
// set changes.
func (f *Front) setHealth(b *backend, ok bool, why string) {
	if b.healthy.Swap(ok) == ok {
		return
	}
	gen := f.metrics.RingGen.Add(1)
	f.metrics.Rebalances.Add(1)
	state := "out"
	if ok {
		state = "ready"
	}
	f.cfg.Logf("idemfront: backend %s %s (%s); ring generation %d", b.id, state, why, gen)
}

// healthSnapshot is the router's live health view for /metrics.
func (f *Front) healthSnapshot() map[string]bool {
	out := make(map[string]bool, len(f.backends))
	for id, b := range f.backends {
		out[id] = b.healthy.Load()
	}
	return out
}

// HealthyNow counts currently-healthy backends (tests poll this).
func (f *Front) HealthyNow() int {
	n := 0
	for _, b := range f.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Plumbing shared by the handlers.

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case f.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case f.HealthyNow() == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy backends")
	default:
		fmt.Fprintln(w, "ready")
	}
}

func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, f.metrics.Render(f.healthSnapshot(), f.jobs.Stats()))
}

// respond writes one front-level response: a replica's body verbatim,
// or one the front encoded the way a replica would.
func respond(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// deadline bounds a request's context by the front's RequestTimeout.
func (f *Front) deadline(r *http.Request) (context.Context, context.CancelFunc) {
	if f.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// ---------------------------------------------------------------------
// Single-key proxying (/v1/compile, /v1/simulate).

// proxySingle reads and decodes the body with idemd's code, so a body
// that fails either gets a replica's answer from the front itself, and
// sends the rest to its content key's ring owner. The method filter ran
// in server.Instrument.
func (f *Front) proxySingle(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := server.ReadBody(w, r)
		var key string
		if err == nil {
			key, err = routeKeyFor(path, body)
		}
		if err != nil {
			server.WriteHTTPErr(w, err)
			return
		}
		ctx, cancel := f.deadline(r)
		defer cancel()
		status, resp, err := f.route(ctx, path, body, key)
		if err != nil {
			server.WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("no replica served the request: %v", err))
			return
		}
		respond(w, status, resp)
	}
}

// routeKeyFor strictly decodes a /v1/compile or /v1/simulate body and
// returns its content routing key.
func routeKeyFor(path string, body []byte) (string, error) {
	var req interface{ RouteKey() buildcache.Key } = &server.CompileRequest{}
	if path == "/v1/simulate" {
		req = &server.SimulateRequest{}
	}
	if err := server.DecodeJSON(body, req); err != nil {
		return "", err
	}
	return keyString(req.RouteKey()), nil
}

// keyString flattens a buildcache key into the ring's key space.
func keyString(k buildcache.Key) string {
	return k.Workload + "|" + strconv.Itoa(k.MemWords) + "|" + k.Options
}

// ---------------------------------------------------------------------
// Routing with failover.

// route sends body to the key's ring owner, failing over down the
// deterministic preference list when a backend cannot serve it. Each
// candidate gets one send, healthy backends first. A transport error
// marks the backend out reactively and moves on; a 5xx or a 429 moves on
// without touching health (the periodic probe decides) and without
// sleeping: re-sending to the next owner is the recovery, since any
// replica computes the same bytes. Any other response, including a
// replica's canonical 4xx, ends the search, and so does the caller's
// context expiring.
func (f *Front) route(ctx context.Context, path string, body []byte, key string) (int, []byte, error) {
	prefs := f.ring.Owners(key)
	cands := f.candidates(prefs)
	var lastStatus int
	var lastBody []byte
	var lastErr error
	for i, b := range cands {
		status, resp, err := f.send(ctx, b, path, body)
		if err == nil && status < 500 && status != http.StatusTooManyRequests {
			if b.id != prefs[0] {
				f.metrics.Failovers.Add(1)
			}
			return status, resp, nil
		}
		lastStatus, lastBody, lastErr = status, resp, err
		if i > 0 {
			f.metrics.Failovers.Add(1)
		}
		if err != nil && status == 0 {
			// No HTTP response at all: the backend is unreachable. Mark it
			// out now instead of waiting for the next probe.
			f.setHealth(b, false, "transport error")
		}
		if ctx.Err() != nil {
			return 0, nil, context.Cause(ctx)
		}
	}
	f.metrics.NoReplica.Add(1)
	if lastErr == nil {
		// The last backend answered, with a 5xx or a 429; surface its
		// canonical error body rather than inventing one.
		return lastStatus, lastBody, nil
	}
	return 0, nil, fmt.Errorf("all %d backends failed: %w", len(cands), lastErr)
}

// candidates orders a key's ring preference list for sending: healthy
// backends first, then the rest as a last resort, each in ring order. A
// dead replica is skipped without waiting for a timeout.
func (f *Front) candidates(prefs []string) []*backend {
	var healthy, rest []*backend
	for _, id := range prefs {
		b := f.backends[id]
		if b.healthy.Load() {
			healthy = append(healthy, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(healthy, rest...)
}

// send posts body to one backend once and records the outcome.
func (f *Front) send(ctx context.Context, b *backend, path string, body []byte) (int, []byte, error) {
	start := time.Now()
	status, resp, err := f.call(ctx, http.MethodPost, b.base+path, body)
	f.metrics.ObserveBackend(b.id, time.Since(start), err != nil || status >= 500)
	return status, resp, err
}

// call sends one request to a replica and reads the whole answer. A
// non-nil body goes as JSON.
func (f *Front) call(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ---------------------------------------------------------------------
// Batch splitting (/v1/batch).

// batchGroup is one replica's slice of a batch: the original indices
// and raw unit bodies, routed by the first unit's content key (whose
// ring owner defines the group).
type batchGroup struct {
	key     string
	indices []int
	units   []json.RawMessage

	status int
	resp   []byte
	err    error
}

// rawBatchResult mirrors server.BatchResult field-for-field with the
// payloads kept as raw bytes, so re-assembly rewrites only the index
// and passes replica output through verbatim — that is what keeps a
// fleet's batch responses byte-identical to a single process's.
type rawBatchResult struct {
	Index    int             `json:"index"`
	Compile  json.RawMessage `json:"compile,omitempty"`
	Simulate json.RawMessage `json:"simulate,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	const path = "/v1/batch"
	groups, total, err := f.readBatch(w, r)
	if err != nil {
		server.WriteHTTPErr(w, err)
		return
	}
	ctx, cancel := f.deadline(r)
	defer cancel()

	// Fan the sub-batches out concurrently; each group fails over
	// independently (any replica can compute any unit).
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			f.metrics.SubBatches.Add(1)
			sub, err := json.Marshal(struct {
				Units []json.RawMessage `json:"units"`
			}{Units: g.units})
			if err != nil {
				g.err = err
				return
			}
			g.status, g.resp, g.err = f.route(ctx, path, sub, g.key)
		}(g)
	}
	wg.Wait()

	// Re-assemble in original index order. A group that no replica could
	// serve fails the whole batch: partial output would not be
	// byte-stable, and the determinism contract is the product.
	merged := make([]rawBatchResult, total)
	for _, g := range groups {
		if g.err != nil {
			server.WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("sub-batch failed on every replica: %v", g.err))
			return
		}
		if g.status != http.StatusOK {
			// No owner accepted the sub-batch (each shed it, or a replica
			// rejected it): surface the replica's response.
			respond(w, g.status, g.resp)
			return
		}
		var sub struct {
			Results []rawBatchResult `json:"results"`
		}
		if err := json.Unmarshal(g.resp, &sub); err != nil || len(sub.Results) != len(g.indices) {
			server.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("sub-batch response malformed: %d results for %d units", len(sub.Results), len(g.indices)))
			return
		}
		for i, res := range sub.Results {
			res.Index = g.indices[i]
			merged[res.Index] = res
		}
	}
	out, err := json.Marshal(struct {
		Results []rawBatchResult `json:"results"`
	}{Results: merged})
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	respond(w, http.StatusOK, append(out, '\n'))
}

// readBatch reads and parses a /v1/batch or /v1/jobs body with idemd's
// code, so a body that fails to read, decode or validate gets a
// replica's answer from the front itself, and groups the units by ring
// owner. It returns the groups and the unit count.
func (f *Front) readBatch(w http.ResponseWriter, r *http.Request) ([]*batchGroup, int, error) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		return nil, 0, err
	}
	units, raw, err := server.ParseBatch(body)
	if err != nil {
		return nil, 0, err
	}
	return f.splitBatch(units, raw), len(units), nil
}

// splitBatch groups parsed units by their content key's ring owner,
// keeping each unit's index and bytes, in first-seen owner order.
func (f *Front) splitBatch(units []server.BatchUnit, raw []json.RawMessage) []*batchGroup {
	groups := map[string]*batchGroup{}
	var order []*batchGroup
	for i, u := range units {
		var k buildcache.Key
		if u.Compile != nil {
			k = u.Compile.RouteKey()
		} else {
			k = u.Simulate.RouteKey()
		}
		key := keyString(k)
		owner := f.ring.Owner(key)
		g := groups[owner]
		if g == nil {
			g = &batchGroup{key: key}
			groups[owner] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		g.units = append(g.units, raw[i])
	}
	return order
}
