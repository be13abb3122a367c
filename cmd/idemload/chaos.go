// The -chaos-seed fault proxy: one seeded fault-injecting handler on a
// loopback listener, forwarding /v1 traffic to the daemon. It adds
// latency, answers 500, resets connections and truncates bodies, so a
// campaign with -retries shows that re-execution absorbs transport
// faults (docs/resilience.md). The metrics scrape goes straight to the
// daemons, never through the proxy.
//
// Every fault decision is drawn from a splitmix64 stream seeded by
// (-chaos-seed, request sequence number), so the same seed over the same
// serialized request sequence injects the same faults. Under concurrency
// the assignment of sequence numbers to requests races, but the number
// of each fault kind, and with retries the converged digest, is still
// seed-reproducible.
package main

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

// An injected latency is drawn uniformly from [latencyMin, latencyMax].
const (
	latencyMin = time.Millisecond
	latencyMax = 25 * time.Millisecond
)

// faultRates sets per-kind fault probabilities in [0, 1]. At most one of
// reset, error500 and truncate fires per request; latency can combine
// with any outcome.
type faultRates struct {
	latency, error500, reset, truncate float64
}

// faultCounts is the -json summary's chaos.injected section.
type faultCounts struct {
	Requests  int64 `json:"requests"`
	Latencies int64 `json:"latencies"`
	Errors500 int64 `json:"errors_500"`
	Resets    int64 `json:"resets"`
	Truncates int64 `json:"truncates"`
}

// injector is the fault-injecting handler in front of next.
type injector struct {
	seed  uint64
	rates faultRates
	next  http.Handler
	seq   atomic.Uint64

	requests, latencies, errors500, resets, truncates atomic.Int64
}

// listenChaos serves in on 127.0.0.1:0, forwarding to target (a
// host:port), and returns the listen address. Closing the server
// releases the listener and its connections.
func listenChaos(target string, in *injector) (*http.Server, string, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, "", fmt.Errorf("chaos: bad target %q: %w", target, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("chaos: listen: %w", err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	// Proxy errors (canceled or timed-out clients) are expected campaign
	// events, not log-worthy.
	rp.ErrorLog = log.New(io.Discard, "", 0)
	in.next = rp
	srv := &http.Server{Handler: in}
	go srv.Serve(l)
	return srv, l.Addr().String(), nil
}

func (in *injector) counts() faultCounts {
	return faultCounts{
		Requests:  in.requests.Load(),
		Latencies: in.latencies.Load(),
		Errors500: in.errors500.Load(),
		Resets:    in.resets.Load(),
		Truncates: in.truncates.Load(),
	}
}

func (in *injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in.requests.Add(1)
	// One stream per request, keyed by (seed, sequence). All five draws
	// happen in a fixed order whichever rates are zero, so enabling one
	// fault kind never perturbs another kind's schedule.
	state := mix(in.seed) ^ in.seq.Add(1)
	roll := func() float64 {
		state = mix(state)
		return float64(state>>11) / (1 << 53)
	}
	resetRoll := roll()
	errorRoll := roll()
	truncateRoll := roll()
	latencyRoll := roll()
	latencyFrac := roll()

	if latencyRoll < in.rates.latency {
		in.latencies.Add(1)
		time.Sleep(latencyMin + time.Duration(latencyFrac*float64(latencyMax-latencyMin)))
	}

	switch {
	case resetRoll < in.rates.reset:
		in.resets.Add(1)
		// net/http aborts the connection without a response; the client
		// observes a reset or EOF mid-request.
		panic(http.ErrAbortHandler)
	case errorRoll < in.rates.error500:
		in.errors500.Add(1)
		http.Error(w, "chaos: injected server error", http.StatusInternalServerError)
		return
	case truncateRoll < in.rates.truncate:
		in.truncates.Add(1)
		in.truncate(w, r)
		return
	}
	in.next.ServeHTTP(w, r)
}

// truncate runs next into a buffer, declares the full Content-Length,
// writes only half the body, and aborts: the client sees a well-formed
// header followed by an unexpected EOF.
func (in *injector) truncate(w http.ResponseWriter, r *http.Request) {
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

// recorder captures next's full response for truncation.
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
