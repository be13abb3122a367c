// Tests for the idemd service core. The concurrency tests run under
// -race in CI (make race-fault): N mixed requests through a parallel
// server must produce bodies byte-identical to a serial server, client
// cancellation mid-flight must not wedge the daemon, the concurrency
// limiter must shed with 429 rather than queue, and a draining server
// must finish every admitted request before Serve returns.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySource is a fast ad-hoc workload: main loops its argument times.
const tinySource = `global int g[8] = {1, 2, 3};
func inc(int x) int { return x + g[0]; }
func main(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = inc(s) + i; }
	return s;
}
`

// slowSource is tinySource with a second accumulator, so its compile key
// differs; tests pass a large argument to keep it in the simulator long
// enough to observe in-flight behavior (also under -race slowdown).
const slowSource = `func main(int n) int {
	int s = 0;
	int t = 1;
	for (int i = 0; i < n; i = i + 1) { s = s + i; t = t + s; }
	return s + t;
}
`

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mixedRequests is a fixed request battery covering every /v1 endpoint,
// scheme paths, fault injection and batching; repeated so the compile
// cache sees hits.
func mixedRequests(t *testing.T) (paths []string, bodies [][]byte) {
	t.Helper()
	add := func(path string, v any) {
		paths = append(paths, path)
		bodies = append(bodies, marshal(t, v))
	}
	f := false
	base := []func(){
		func() { add("/v1/compile", &CompileRequest{Source: tinySource}) },
		func() {
			add("/v1/compile", &CompileRequest{Source: tinySource,
				Options: &OptionsSpec{Idempotent: &f}})
		},
		func() {
			add("/v1/compile", &CompileRequest{Source: tinySource,
				Options: &OptionsSpec{Core: &CoreOptionsSpec{MaxRegionSize: 8}}})
		},
		func() {
			add("/v1/simulate", &SimulateRequest{Source: tinySource, Args: []uint64{25}})
		},
		func() {
			add("/v1/simulate", &SimulateRequest{Source: tinySource, Args: []uint64{25},
				Scheme:     "idem",
				Injections: []InjectionSpec{{Model: "reg", Step: 40, Mask: 1 << 7}},
			})
		},
		func() {
			add("/v1/simulate", &SimulateRequest{Source: tinySource, Args: []uint64{25},
				Scheme:     "dmr",
				Injections: []InjectionSpec{{Model: "mem", Step: 30, Mask: 1}},
			})
		},
		func() {
			add("/v1/batch", &BatchRequest{Units: []BatchUnit{
				{Compile: &CompileRequest{Source: tinySource}},
				{Simulate: &SimulateRequest{Source: tinySource, Args: []uint64{10}, Scheme: "tmr"}},
				{Compile: &CompileRequest{Source: "not a program"}}, // per-unit error
			}})
		},
	}
	for rep := 0; rep < 4; rep++ {
		for _, f := range base {
			f()
		}
	}
	return paths, bodies
}

// TestConcurrentMatchesSerial drives the mixed battery through a
// parallel server with many concurrent clients, then through a fresh
// serial server one request at a time, and requires byte-identical
// response bodies: responses are a pure function of the request, not of
// cache state, interleaving or pool width.
func TestConcurrentMatchesSerial(t *testing.T) {
	paths, bodies := mixedRequests(t)
	n := len(paths)

	run := func(workers int, concurrency int) [][]byte {
		s := New(Config{Workers: workers, MaxInFlight: n + 8})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		out := make([][]byte, n)
		var wg sync.WaitGroup
		sem := make(chan struct{}, concurrency)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				code, b := postJSON(t, ts.Client(), ts.URL+paths[i], bodies[i])
				if code != http.StatusOK {
					t.Errorf("request %d %s: status %d body %s", i, paths[i], code, b)
				}
				out[i] = b
			}(i)
		}
		wg.Wait()
		return out
	}

	parallel := run(4, 16)
	serial := run(1, 1)
	if t.Failed() {
		t.FailNow()
	}
	for i := range parallel {
		if !bytes.Equal(parallel[i], serial[i]) {
			t.Errorf("request %d %s: parallel body differs from serial:\n  parallel: %s\n  serial:   %s",
				i, paths[i], parallel[i], serial[i])
		}
	}
}

// TestBatchMatchesIndividual: a batch unit's embedded report must equal
// the standalone endpoint's report for the same request.
func TestBatchMatchesIndividual(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	creq := &CompileRequest{Source: tinySource}
	code, single := postJSON(t, ts.Client(), ts.URL+"/v1/compile", marshal(t, creq))
	if code != http.StatusOK {
		t.Fatalf("compile: status %d body %s", code, single)
	}
	code, batch := postJSON(t, ts.Client(), ts.URL+"/v1/batch",
		marshal(t, &BatchRequest{Units: []BatchUnit{{Compile: creq}}}))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, batch)
	}
	var br BatchResponse
	if err := json.Unmarshal(batch, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Compile == nil || br.Results[0].Error != "" {
		t.Fatalf("batch result malformed: %s", batch)
	}
	embedded := marshal(t, br.Results[0].Compile)
	var sr CompileReport
	if err := json.Unmarshal(single, &sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(embedded, marshal(t, &sr)) {
		t.Errorf("batch-embedded compile report differs from /v1/compile:\n  batch:  %s\n  single: %s", embedded, single)
	}
}

// TestClientCancellationMidFlight: a client abandoning a long simulate
// must not wedge the daemon — the in-flight slot frees and subsequent
// requests are served normally.
func TestClientCancellationMidFlight(t *testing.T) {
	s := New(Config{MaxInFlight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("expected cancellation, got status %d", resp.StatusCode)
		}
		errc <- err
	}()
	// Wait for the request to be admitted, then abandon it.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request: got %v, want context.Canceled", err)
	}

	// The daemon must still serve (the abandoned run finishes in the
	// background and its slot frees; a quick request goes right through).
	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/compile", marshal(t, &CompileRequest{Source: tinySource}))
	if code != http.StatusOK {
		t.Fatalf("post-cancellation compile: status %d body %s", code, b)
	}
}

// TestRequestTimeout: a simulate that outlives the per-request deadline
// comes back 503 ("request abandoned"), not a hung connection.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}}))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out simulate: status %d body %s, want 503", code, b)
	}
	if !strings.Contains(string(b), "request abandoned") {
		t.Errorf("timed-out simulate body %s, want 'request abandoned'", b)
	}
}

// TestShedding: with MaxInFlight=1, a second concurrent request is shed
// with 429 (never queued), and the shed shows up in /metrics.
func TestShedding(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		close(started)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/compile", marshal(t, &CompileRequest{Source: tinySource}))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: status %d body %s, want 429", code, b)
	}
	cancel() // release the slow request

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "idemd_http_shed_total 1") {
		t.Errorf("metrics missing shed count:\n%s", mb)
	}
	if !strings.Contains(string(mb), `idemd_http_requests_total{path="/v1/compile",code="429"} 1`) {
		t.Errorf("metrics missing 429 requests_total line:\n%s", mb)
	}
}

// TestGracefulDrain: Shutdown flips /readyz to 503, lets an in-flight
// request finish with its full 200 response, and only then does Serve
// return ErrServerClosed. Nothing admitted is dropped.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{}

	// Readiness before drain.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}

	// Admit a slow request, then begin draining while it runs.
	slowDone := make(chan error, 1)
	go func() {
		code, b := 0, []byte(nil)
		r, err := client.Post(base+"/v1/simulate", "application/json",
			bytes.NewReader(marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{2_000_000}})))
		if err == nil {
			code = r.StatusCode
			b, err = io.ReadAll(r.Body)
			r.Body.Close()
		}
		if err != nil {
			slowDone <- err
			return
		}
		if code != http.StatusOK || !bytes.Contains(b, []byte(`"digest"`)) {
			slowDone <- fmt.Errorf("drained request: status %d body %s", code, b)
			return
		}
		slowDone <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// Readiness after drain (in-process: the listener is gone).
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", rec.Code)
	}
	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
}

// validationCase is one malformed request and the status it must get.
type validationCase struct {
	name, path, body string
	want             int
}

var validationCases = []validationCase{
	{"unknown workload", "/v1/compile", `{"workload": "nope"}`, 400},
	{"workload and source", "/v1/compile", `{"workload": "mcf", "source": "func main() int { return 0; }"}`, 400},
	{"neither workload nor source", "/v1/compile", `{}`, 400},
	{"unknown field", "/v1/compile", `{"workload": "mcf", "bogus": 1}`, 400},
	{"invalid json", "/v1/compile", `{`, 400},
	{"trailing data", "/v1/compile", `{"workload": "mcf"} {"workload": "mcf"}`, 400},
	{"unparsable source", "/v1/compile", `{"source": "func main("}`, 400},
	{"mem_words too small", "/v1/compile", `{"workload": "mcf", "mem_words": 1}`, 400},
	{"body too large", "/v1/compile", `{"source": "` + strings.Repeat("x", MaxBodyBytes) + `"}`, 413},
	{"bad scheme", "/v1/simulate", `{"workload": "mcf", "scheme": "magic"}`, 400},
	{"too many args", "/v1/simulate", `{"workload": "mcf", "args": [1, 2, 3, 4, 5]}`, 400},
	{"explicit idempotent", "/v1/simulate", `{"workload": "mcf", "scheme": "idem", "options": {"idempotent": true}}`, 400},
	{"bad injection model", "/v1/simulate", `{"workload": "mcf", "injections": [{"model": "gremlin", "step": 1}]}`, 400},
	{"empty batch", "/v1/batch", `{"units": []}`, 400},
	{"oversized batch", "/v1/batch", `{"units": [` +
		strings.Repeat(`{"compile":{"workload":"mcf"}},`, MaxBatchUnits) + `{"compile":{"workload":"mcf"}}]}`, 400},
	{"ambiguous unit", "/v1/batch", `{"units": [{"compile": {"workload": "mcf"}, "simulate": {"workload": "mcf"}}]}`, 400},
	{"empty unit", "/v1/batch", `{"units": [{}]}`, 400},
}

// TestValidation covers the request-validation surface.
func TestValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range validationCases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := postJSON(t, ts.Client(), ts.URL+tc.path, []byte(tc.body))
			if code != tc.want {
				t.Errorf("status %d body %s, want %d", code, b, tc.want)
			}
			if !bytes.Contains(b, []byte(`"error"`)) {
				t.Errorf("error body missing error field: %s", b)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/compile")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/compile: %d, want 405", resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodPost {
			t.Errorf("Allow header %q, want POST", got)
		}
	})
}

// FuzzDecodeBatch feeds untrusted bytes through ParseBatch, the
// /v1/batch and /v1/jobs parser, then every unit through the checks
// doCompile and doSimulate make before they build, and finally its
// RouteKey. None of it may panic. Every accepted body must re-encode to
// JSON that ParseBatch accepts and that re-encodes to the same bytes,
// and every unit's own bytes must encode it.
func FuzzDecodeBatch(f *testing.F) {
	for _, tc := range validationCases {
		if len(tc.body) > MaxBodyBytes {
			continue // rejected before decode
		}
		f.Add([]byte(tc.body))
		switch tc.path {
		case "/v1/compile":
			f.Add([]byte(`{"units": [{"compile": ` + tc.body + `}]}`))
		case "/v1/simulate":
			f.Add([]byte(`{"units": [{"simulate": ` + tc.body + `}]}`))
		}
	}
	f.Add([]byte(`{"units": [
		{"compile": {"workload": "mcf", "options": {"core": {"max_region_size": 16}}}},
		{"simulate": {"workload": "mcf", "scheme": "idem", "args": [40],
			"injections": [{"model": "nested", "step": 100, "mask": 8, "after": 1, "nested_mask": 4}]}},
		{"simulate": {"source": "func main(int n) int { return n; }", "scheme": "cl", "mem_words": 4096}}
	]}`))
	// Every optional field set, so the round trip covers each one's
	// encoding; the source carries a byte that is not UTF-8.
	f.Add([]byte(`{"units": [{"compile": {"source": "func main() int { return 0; } ` + "\xff" + `", "mem_words": 2048,
		"options": {"idempotent": false, "relaxed_alloc": true, "pure_calls": true,
			"core": {"loop_heuristic": false, "red_elim": true, "unroll_loops": false, "cut_at_calls": true,
				"max_region_size": 8, "balanced_heuristic": true}}}}]}`))
	f.Add([]byte(`{"units": [{"simulate": {"workload": "mcf", "mem_words": 8192, "args": [3, 18446744073709551615],
		"scheme": "tmr", "options": {"pure_calls": true, "core": {"max_region_size": 4}}, "track_paths": true,
		"injections": [{"model": "mem", "step": 7, "mask": 1, "addr": 12, "after": 2, "nested_mask": 3}],
		"watchdog_ref": 4096, "max_steps": 100000}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		units, raw, err := ParseBatch(body)
		if err != nil {
			return
		}
		if len(raw) != len(units) {
			t.Fatalf("%d units, %d unit bodies", len(units), len(raw))
		}
		for i, u := range units {
			var again BatchUnit
			if err := DecodeJSON(raw[i], &again); err != nil || !bytes.Equal(marshal(t, &again), marshal(t, &u)) {
				t.Fatalf("unit %d's bytes %s do not decode to it (%v)", i, raw[i], err)
			}
		}
		enc := marshal(t, &BatchRequest{Units: units})
		again, _, err := ParseBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded body %s does not parse: %v", enc, err)
		}
		if enc2 := marshal(t, &BatchRequest{Units: again}); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the body:\n %s\n %s", enc, enc2)
		}
		for _, u := range units {
			if c := u.Compile; c != nil {
				resolveWorkload(c.Workload, c.Source, c.MemWords, nil)
				c.RouteKey()
			}
			if r := u.Simulate; r != nil {
				resolveWorkload(r.Workload, r.Source, r.MemWords, r.Args)
				r.scheme()
				for _, is := range r.Injections {
					is.parse()
				}
				r.RouteKey()
			}
		}
	})
}

// TestBodyAdmission pins what the shared admission code answers: a body
// that fails to read gets one 400 on every /v1 POST route, nothing but
// whitespace may follow the JSON value, and a batch unit is what its own
// bytes say, also when a repeated "units" key merges a whole-body decode.
func TestBodyAdmission(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first []byte
	for _, path := range []string{"/v1/compile", "/v1/simulate", "/v1/batch", "/v1/jobs"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: idemd\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n", path)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		conn.Close()
		if first == nil {
			first = b
		}
		if resp.StatusCode != http.StatusBadRequest || !bytes.HasPrefix(b, []byte(`{"error":"reading body: `)) || !bytes.Equal(b, first) {
			t.Errorf("%s, bad chunk length: status %d body %s, want 400 and %s", path, resp.StatusCode, b, first)
		}
	}

	for _, body := range []string{`{"workload": "mcf"}]`, `{"workload": "mcf"}}`, `{"workload": "mcf"} ]x`} {
		code, b := postJSON(t, ts.Client(), ts.URL+"/v1/compile", []byte(body))
		if code != http.StatusBadRequest || !bytes.Contains(b, []byte("trailing data after JSON body")) {
			t.Errorf("%s: status %d body %s, want trailing data", body, code, b)
		}
	}

	units, raw, err := ParseBatch([]byte(`{"units": [{"compile": {"workload": "mcf"}}], "units": [{"simulate": {"workload": "mcf"}}]}`))
	if err != nil || len(units) != 1 || units[0].Compile != nil || string(raw[0]) != `{"simulate": {"workload": "mcf"}}` {
		t.Errorf("repeated units key: %+v %s (%v), want the second array's one simulate unit", units, raw, err)
	}
}

// TestMachineErrorIs200: a run that fail-stops (detected fault, no
// recovery) is a successful analysis — the outcome is data, not an HTTP
// error.
func TestMachineErrorIs200(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// DMR detects the flip and fail-stops.
	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", marshal(t, &SimulateRequest{
		Source: tinySource, Args: []uint64{50}, Scheme: "dmr",
		Injections: []InjectionSpec{{Model: "reg", Step: 60, Mask: 1 << 3}},
	}))
	if code != http.StatusOK {
		t.Fatalf("dmr fault run: status %d body %s", code, b)
	}
	var rep SimulateReport
	if err := json.Unmarshal(b, &rep); /* digest always present */ err != nil {
		t.Fatal(err)
	}
	if rep.Digest.DynInstrs == 0 {
		t.Errorf("digest missing dynamic instruction count: %s", b)
	}
}

// TestMetricsCatalog: the exposition carries every documented series.
func TestMetricsCatalog(t *testing.T) {
	s := New(Config{CacheMaxBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/compile", marshal(t, &CompileRequest{Source: tinySource}))
	postJSON(t, ts.Client(), ts.URL+"/v1/compile", marshal(t, &CompileRequest{Source: tinySource}))

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	text := string(mb)
	for _, want := range []string{
		`idemd_http_requests_total{path="/v1/compile",code="200"} 2`,
		`idemd_http_request_duration_seconds_count{path="/v1/compile"} 2`,
		`idemd_http_request_duration_seconds_bucket{path="/v1/compile",le="+Inf"} 2`,
		"idemd_http_inflight_requests 1", // this scrape itself
		"idemd_http_shed_total 0",
		"idemd_sim_preempted_total 0",
		"idemd_buildcache_hits_total 1",
		"idemd_buildcache_misses_total 1",
		"idemd_buildcache_evictions_total 0",
		"idemd_buildcache_entries 1",
		"idemd_buildcache_max_bytes 1048576",
		"idemd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
