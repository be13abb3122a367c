// Package chaos is a seeded HTTP fault-injection layer for exercising
// the resilience stack against a real idemd. It wraps a handler (or
// fronts a live server as a reverse proxy) and injects transport-level
// faults — added latency, 500 responses, connection resets, truncated
// bodies — at configurable per-path rates.
//
// Every fault decision is drawn from a splitmix64 stream seeded by
// (Config.Seed, request sequence number), so a campaign is replayable:
// the same seed over the same serialized request sequence injects the
// same faults. Under concurrency the assignment of sequence numbers to
// requests races, but the *number* of each fault kind injected — and,
// with retries enabled, the converged campaign outcome — is still
// seed-reproducible, which is what the end-to-end chaos tests pin.
package chaos

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// Rates sets per-kind fault probabilities in [0, 1]. Faults are rolled
// in a fixed order (reset, error, truncate, latency) from one
// per-request stream; at most one of reset/error/truncate fires per
// request, while latency can combine with a clean response.
type Rates struct {
	// Latency is the probability of delaying the request by a duration
	// drawn uniformly from [LatencyMin, LatencyMax].
	Latency    float64
	LatencyMin time.Duration // default 1ms
	LatencyMax time.Duration // default 25ms
	// Error500 is the probability of replying 500 without reaching the
	// wrapped handler.
	Error500 float64
	// Reset is the probability of aborting the connection before any
	// response bytes (the client sees a connection reset / EOF).
	Reset float64
	// Truncate is the probability of sending a response whose body stops
	// short of its declared Content-Length.
	Truncate float64
}

func (r Rates) withDefaults() Rates {
	if r.LatencyMin <= 0 {
		r.LatencyMin = time.Millisecond
	}
	if r.LatencyMax < r.LatencyMin {
		r.LatencyMax = 25 * time.Millisecond
	}
	return r
}

// Config seeds and shapes an Injector.
type Config struct {
	// Seed drives every fault decision. The same seed replays the same
	// fault schedule over the same request sequence.
	Seed uint64
	// Default applies to paths without a PerPath override.
	Default Rates
	// PerPath overrides rates for exact request paths (e.g. keep
	// /metrics clean while /v1/simulate takes faults).
	PerPath map[string]Rates
}

// Counters tallies injected faults, readable mid-campaign.
type Counters struct {
	Requests  int64 `json:"requests"`
	Latencies int64 `json:"latencies"`
	Errors500 int64 `json:"errors_500"`
	Resets    int64 `json:"resets"`
	Truncates int64 `json:"truncates"`
}

// Injector is the fault-injecting middleware. Build with Wrap.
type Injector struct {
	cfg  Config
	next http.Handler
	seq  atomic.Uint64

	requests  atomic.Int64
	latencies atomic.Int64
	errors500 atomic.Int64
	resets    atomic.Int64
	truncates atomic.Int64
}

// Wrap returns an Injector that filters traffic to next.
func Wrap(next http.Handler, cfg Config) *Injector {
	cfg.Default = cfg.Default.withDefaults()
	for p, r := range cfg.PerPath {
		cfg.PerPath[p] = r.withDefaults()
	}
	return &Injector{cfg: cfg, next: next}
}

// Counters snapshots the fault tally.
func (in *Injector) Counters() Counters {
	return Counters{
		Requests:  in.requests.Load(),
		Latencies: in.latencies.Load(),
		Errors500: in.errors500.Load(),
		Resets:    in.resets.Load(),
		Truncates: in.truncates.Load(),
	}
}

// splitmix64 — the repo's standard seeded generator (idemload's request
// mix, resilience's jitter), so one seed namespace covers the campaign.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream is a tiny per-request PRNG: state advances one mix per draw.
type stream struct{ state uint64 }

func (s *stream) next() uint64 {
	s.state = mix(s.state)
	return s.state
}

// roll draws a uniform float in [0, 1).
func (s *stream) roll() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in.requests.Add(1)
	rates, ok := in.cfg.PerPath[r.URL.Path]
	if !ok {
		rates = in.cfg.Default
	}
	// One stream per request, keyed by (seed, sequence). All draws
	// happen in a fixed order regardless of which rates are zero, so
	// enabling one fault kind never perturbs another kind's schedule.
	st := &stream{state: mix(in.cfg.Seed) ^ in.seq.Add(1)}
	resetRoll := st.roll()
	errorRoll := st.roll()
	truncateRoll := st.roll()
	latencyRoll := st.roll()
	latencyFrac := st.roll()

	if rates.Latency > 0 && latencyRoll < rates.Latency {
		in.latencies.Add(1)
		span := rates.LatencyMax - rates.LatencyMin
		time.Sleep(rates.LatencyMin + time.Duration(latencyFrac*float64(span)))
	}

	switch {
	case rates.Reset > 0 && resetRoll < rates.Reset:
		in.resets.Add(1)
		// net/http aborts the connection without a response; the client
		// observes a reset/EOF mid-request.
		panic(http.ErrAbortHandler)
	case rates.Error500 > 0 && errorRoll < rates.Error500:
		in.errors500.Add(1)
		http.Error(w, "chaos: injected server error", http.StatusInternalServerError)
		return
	case rates.Truncate > 0 && truncateRoll < rates.Truncate:
		in.truncates.Add(1)
		in.truncate(w, r)
		return
	}
	in.next.ServeHTTP(w, r)
}

// truncate runs the wrapped handler into a buffer, declares the full
// Content-Length, writes only half the body, and aborts — the client
// sees a well-formed header followed by an unexpected EOF.
func (in *Injector) truncate(w http.ResponseWriter, r *http.Request) {
	rec := &recorder{header: http.Header{}, code: http.StatusOK}
	in.next.ServeHTTP(rec, r)
	body := rec.body
	if len(body) < 2 {
		// Nothing worth cutting; degrade to a reset.
		panic(http.ErrAbortHandler)
	}
	h := w.Header()
	for k, vs := range rec.header {
		h[k] = vs
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.code)
	w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// recorder captures the wrapped handler's full response for truncation.
type recorder struct {
	header http.Header
	code   int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// Proxy fronts a live HTTP server with an Injector, so any idemd — in
// or out of process — can be chaos-tested without linking this package.
type Proxy struct {
	inj *Injector
	l   net.Listener
	srv *http.Server
}

// NewProxy listens on 127.0.0.1:0 and forwards faulted traffic to
// target (a host:port). Close releases the listener.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad target %q: %w", target, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	// Proxy errors (canceled or timed-out clients) are expected
	// campaign events, not log-worthy.
	rp.ErrorLog = log.New(io.Discard, "", 0)
	inj := Wrap(rp, cfg)
	p := &Proxy{
		inj: inj,
		l:   l,
		srv: &http.Server{Handler: inj},
	}
	go p.srv.Serve(l)
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// Counters snapshots the proxy's fault tally.
func (p *Proxy) Counters() Counters { return p.inj.Counters() }

// Close force-closes the proxy listener and connections.
func (p *Proxy) Close() error { return p.srv.Close() }
