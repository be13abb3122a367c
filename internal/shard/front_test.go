// Front-tier contract tests. The load-bearing one is byte-identity: a
// 3-replica fleet behind the front must answer every request — valid,
// invalid, batched, method-errored — with exactly the bytes a single
// idemd process produces (FuzzFrontMatchesReplica extends it to raw
// request bytes). The rest pin the properties that make the
// fleet worth running: the working set partitions across replica caches
// (fleet capacity scales with N), batches split and reassemble in index
// order, and killing a replica mid-traffic degrades throughput only.
package shard

import (
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
	"sync/atomic"
	"testing"
	"time"

	"idemproc/internal/server"
)

// frontTinySrc is a fast ad-hoc workload: main loops its argument times.
const frontTinySrc = `global int g[8] = {1, 2, 3};
func inc(int x) int { return x + g[0]; }
func main(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = inc(s) + i; }
	return s;
}
`

// srcVariant returns a distinct-but-cheap workload per i, so a set of
// requests spans many content keys (and therefore many ring owners).
func srcVariant(i int) string {
	return fmt.Sprintf("func main(int n) int {\n\tint s = %d;\n\tfor (int i = 0; i < n; i = i + 1) { s = s + i; }\n\treturn s;\n}\n", i)
}

func newReplica(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, strings.TrimPrefix(ts.URL, "http://")
}

func newFront(t *testing.T, backends []string, mutate func(*Config)) (*Front, string) {
	t.Helper()
	cfg := Config{Backends: backends, HealthInterval: 25 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts.URL
}

func postBody(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// battery covers every /v1 path with valid, invalid and mixed-validity
// request bodies. Invalid shapes matter as much as valid ones: the
// front must answer them with a replica's bytes.
func battery(t testing.TB) (paths []string, bodies [][]byte) {
	t.Helper()
	add := func(path string, body []byte) {
		paths = append(paths, path)
		bodies = append(bodies, body)
	}
	f := false
	// Valid compiles: ad-hoc sources, a named workload, options variants.
	add("/v1/compile", mustJSON(t, &server.CompileRequest{Source: frontTinySrc}))
	add("/v1/compile", mustJSON(t, &server.CompileRequest{Source: frontTinySrc,
		Options: &server.OptionsSpec{Idempotent: &f}}))
	add("/v1/compile", mustJSON(t, &server.CompileRequest{Workload: "blackscholes"}))
	for i := 0; i < 6; i++ {
		add("/v1/compile", mustJSON(t, &server.CompileRequest{Source: srcVariant(i)}))
	}
	// Valid simulations across schemes, with and without fault injection.
	add("/v1/simulate", mustJSON(t, &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{25}}))
	add("/v1/simulate", mustJSON(t, &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{25},
		Scheme:     "idem",
		Injections: []server.InjectionSpec{{Model: "reg", Step: 40, Mask: 1 << 7}}}))
	add("/v1/simulate", mustJSON(t, &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{25},
		Scheme:     "dmr",
		Injections: []server.InjectionSpec{{Model: "mem", Step: 30, Mask: 1}}}))
	// A batch that spans content keys (so it splits) and includes a
	// per-unit error the replicas report in-band.
	add("/v1/batch", mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
		{Simulate: &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{10}, Scheme: "tmr"}},
		{Compile: &server.CompileRequest{Source: "not a program"}},
		{Compile: &server.CompileRequest{Source: srcVariant(1)}},
		{Simulate: &server.SimulateRequest{Source: srcVariant(2), Args: []uint64{5}}},
	}}))
	// Invalid bodies: the front rejects the ones that fail to decode or
	// validate with idemd's own code, and the owning replica answers the
	// rest (here, a compile with neither source nor workload).
	add("/v1/compile", []byte(`{"sourc`+`e": 3}`))
	add("/v1/compile", []byte(`{"bogus_field": true}`))
	add("/v1/compile", []byte(`not json at all`))
	add("/v1/compile", mustJSON(t, &server.CompileRequest{})) // neither source nor workload
	add("/v1/simulate", []byte(`{"source": "x"} trailing`))
	add("/v1/batch", []byte(`{"units": []}`))
	add("/v1/batch", mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: frontTinySrc},
			Simulate: &server.SimulateRequest{Source: frontTinySrc}}, // both set
	}}))
	add("/v1/batch", mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{{}}})) // neither set
	return paths, bodies
}

// TestFrontMatchesSingleProcess is the determinism contract end to end:
// (status, body) from a 3-replica fleet == (status, body) from one
// process, for every battery request, on both a cold and a warm pass.
func TestFrontMatchesSingleProcess(t *testing.T) {
	ref := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	var backends []string
	for i := 0; i < 3; i++ {
		_, addr := newReplica(t)
		backends = append(backends, addr)
	}
	_, frontURL := newFront(t, backends, nil)

	paths, bodies := battery(t)
	for pass := 0; pass < 2; pass++ { // second pass exercises warm caches
		for i := range paths {
			wantCode, wantBody := postBody(t, refTS.URL+paths[i], bodies[i])
			gotCode, gotBody := postBody(t, frontURL+paths[i], bodies[i])
			if gotCode != wantCode {
				t.Fatalf("pass %d %s req %d: status %d via front, %d direct\nbody: %s",
					pass, paths[i], i, gotCode, wantCode, gotBody)
			}
			if !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("pass %d %s req %d: bodies diverge\nfront:  %s\ndirect: %s",
					pass, paths[i], i, gotBody, wantBody)
			}
		}
	}

	// Method errors must read identically too (the front answers these
	// itself — it must mimic the replica exactly).
	for _, path := range []string{"/v1/compile", "/v1/simulate", "/v1/batch"} {
		want, wantErr := http.Get(refTS.URL + path)
		got, gotErr := http.Get(frontURL + path)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("GET %s: %v / %v", path, wantErr, gotErr)
		}
		wb, _ := io.ReadAll(want.Body)
		gb, _ := io.ReadAll(got.Body)
		want.Body.Close()
		got.Body.Close()
		if got.StatusCode != want.StatusCode || !bytes.Equal(gb, wb) {
			t.Fatalf("GET %s: front (%d, %s) vs direct (%d, %s)",
				path, got.StatusCode, gb, want.StatusCode, wb)
		}
	}
}

// TestFrontRejectsBadBodiesItself: a body that fails to read, decode or
// validate gets a replica's exact answer from the front, which reads and
// parses bodies with idemd's code, and no replica receives it.
func TestFrontRejectsBadBodiesItself(t *testing.T) {
	_, refAddr := newReplica(t)
	var received atomic.Int64
	s := server.New(server.Config{})
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			received.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	_, frontURL := newFront(t, []string{strings.TrimPrefix(counted.URL, "http://")}, nil)

	units := make([]server.BatchUnit, server.MaxBatchUnits+1)
	for i := range units {
		units[i].Compile = &server.CompileRequest{Workload: "mcf"}
	}
	oversized := string(mustJSON(t, &server.BatchRequest{Units: units}))
	var raws [][]byte
	for _, rq := range []struct{ path, body string }{
		{"/v1/compile", `not json at all`},
		{"/v1/compile", `{"bogus_field": true}`},
		{"/v1/compile", `{"workload": "mcf"}]`},
		{"/v1/compile", `{"source": "` + strings.Repeat("x", server.MaxBodyBytes) + `"}`},
		{"/v1/compile", "x" + strings.Repeat(" ", server.MaxBodyBytes)},
		{"/v1/simulate", `{"source": "x"} trailing`},
		{"/v1/simulate", `{"workload": "mcf", "args": "x"}`},
		{"/v1/batch", `{"units": []}`},
		{"/v1/batch", `{"units": [{}]}`},
		{"/v1/batch", oversized},
		{"/v1/jobs", `{"units": [{"compile": {"workload": "mcf"}, "simulate": {"workload": "mcf"}}]}`},
		{"/v1/jobs", `{"units": [{"compile": {"workload": "mcf", "bogus": 1}}]}`},
		{"/v1/jobs", oversized},
	} {
		raws = append(raws, rawRequest(http.MethodPost, rq.path, []byte(rq.body)))
	}
	for _, path := range []string{"/v1/compile", "/v1/simulate", "/v1/batch", "/v1/jobs"} {
		raws = append(raws, badChunk(path))
	}
	for _, raw := range raws {
		head, _, _ := strings.Cut(string(raw), "\r\n")
		want := exchange(t, refAddr, raw, nil, true)
		got := exchange(t, strings.TrimPrefix(frontURL, "http://"), raw, nil, true)
		if got != want || (want.status != http.StatusBadRequest && want.status != http.StatusRequestEntityTooLarge) {
			t.Errorf("%s: front %+v, replica %+v, want the same 400 or 413", head, got, want)
		}
	}
	if n := received.Load(); n != 0 {
		t.Errorf("the replica received %d /v1 requests, want 0", n)
	}
}

// TestFrontPartitionsWorkingSet: each content key misses exactly once
// fleet-wide (on its ring owner) and hits there afterwards — the cache
// behavior that makes fleet capacity the sum of the replicas' bounds.
func TestFrontPartitionsWorkingSet(t *testing.T) {
	const distinct = 12
	var servers []*server.Server
	var backends []string
	for i := 0; i < 3; i++ {
		s, addr := newReplica(t)
		servers = append(servers, s)
		backends = append(backends, addr)
	}
	_, frontURL := newFront(t, backends, nil)

	for pass := 0; pass < 2; pass++ {
		for i := 0; i < distinct; i++ {
			code, body := postBody(t, frontURL+"/v1/compile", mustJSON(t, &server.CompileRequest{Source: srcVariant(i)}))
			if code != http.StatusOK {
				t.Fatalf("compile %d: status %d: %s", i, code, body)
			}
		}
	}

	var hits, misses int64
	var owning int
	for i, s := range servers {
		st := s.Cache().Stats()
		hits += st.Hits
		misses += st.Misses
		if st.Misses > 0 {
			owning++
		}
		t.Logf("replica %d (%s): %d misses, %d hits", i, backends[i], st.Misses, st.Hits)
	}
	if misses != distinct {
		t.Errorf("fleet compiled %d times for %d distinct keys; partitioning should make these equal", misses, distinct)
	}
	if hits != distinct {
		t.Errorf("fleet hit %d times, want %d (every key re-requested once)", hits, distinct)
	}
	if owning < 2 {
		t.Errorf("only %d replicas own any keys; the ring is not spreading %d keys", owning, distinct)
	}
}

// TestFrontSplitsBatches: a multi-key batch fans out as >1 sub-batch
// and still returns results in request-index order.
func TestFrontSplitsBatches(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		_, addr := newReplica(t)
		backends = append(backends, addr)
	}
	front, frontURL := newFront(t, backends, nil)

	var units []server.BatchUnit
	const n = 12
	for i := 0; i < n; i++ {
		units = append(units, server.BatchUnit{Compile: &server.CompileRequest{Source: srcVariant(i)}})
	}
	code, body := postBody(t, frontURL+"/v1/batch", mustJSON(t, &server.BatchRequest{Units: units}))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if len(resp.Results) != n {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), n)
	}
	for i, r := range resp.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d; order not restored", i, r.Index)
		}
		if r.Error != "" || r.Compile == nil {
			t.Fatalf("result %d: error %q", i, r.Error)
		}
	}
	if got := front.Metrics().SubBatches.Load(); got < 2 {
		t.Errorf("batch of %d distinct keys fanned out as %d sub-batches; expected a split", n, got)
	}
}

// TestFrontSurvivesReplicaDeath: killing a replica mid-traffic must not
// change a single response byte — its keys fail over to the
// deterministic next owner and recompute there.
func TestFrontSurvivesReplicaDeath(t *testing.T) {
	ref := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	var backends []string
	var listeners []*httptest.Server
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		listeners = append(listeners, ts)
		backends = append(backends, strings.TrimPrefix(ts.URL, "http://"))
	}
	front, frontURL := newFront(t, backends, nil)

	paths, bodies := battery(t)
	check := func(phase string) {
		for i := range paths {
			wantCode, wantBody := postBody(t, refTS.URL+paths[i], bodies[i])
			gotCode, gotBody := postBody(t, frontURL+paths[i], bodies[i])
			if gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("%s: %s req %d diverged: front (%d, %s) vs direct (%d, %s)",
					phase, paths[i], i, gotCode, gotBody, wantCode, wantBody)
			}
		}
	}

	check("all replicas up")
	listeners[1].Close() // kill one replica, connections refused from here on
	check("one replica dead")

	if front.Metrics().Failovers.Load() == 0 {
		t.Error("no failovers recorded although a replica died under traffic")
	}
	deadline := time.Now().Add(5 * time.Second)
	for front.HealthyNow() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := front.HealthyNow(); got != 2 {
		t.Errorf("health loop sees %d healthy backends, want 2", got)
	}
}

// TestFrontFailsOverWithoutRetrying: an owner that answers 503, or 429
// with a Retry-After hint, gets the request exactly once. The front
// re-sends it to the next owner at once instead of retrying the failing
// one or sleeping out its hint; any replica's answer is the answer.
func TestFrontFailsOverWithoutRetrying(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
	}{
		{"503", http.StatusServiceUnavailable, ""},
		{"429", http.StatusTooManyRequests, "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" {
					fmt.Fprintln(w, "ready")
					return
				}
				hits.Add(1)
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				fmt.Fprintln(w, `{"error":"stub"}`)
			}))
			t.Cleanup(stub.Close)
			stubAddr := strings.TrimPrefix(stub.URL, "http://")
			_, replicaAddr := newReplica(t)
			front, frontURL := newFront(t, []string{stubAddr, replicaAddr}, nil)

			var body []byte
			for i := 0; i < 64 && body == nil; i++ {
				req := server.CompileRequest{Source: srcVariant(i)}
				if front.Ring().Owner(keyString(req.RouteKey())) == stubAddr {
					body = mustJSON(t, &req)
				}
			}
			if body == nil {
				t.Fatal("no srcVariant in 64 is owned by the stub")
			}

			start := time.Now()
			code, got := postBody(t, frontURL+"/v1/compile", body)
			elapsed := time.Since(start)
			wantCode, want := postBody(t, "http://"+replicaAddr+"/v1/compile", body)
			if code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("front (%d, %s) vs direct replica (%d, %s)", code, got, wantCode, want)
			}
			if n := hits.Load(); n != 1 {
				t.Errorf("the failing owner got %d requests, want 1", n)
			}
			if elapsed >= time.Second {
				t.Errorf("failover took %v, want under 1s", elapsed)
			}
			if n := front.Metrics().Failovers.Load(); n != 1 {
				t.Errorf("failovers = %d, want 1", n)
			}
		})
	}
}

// TestShutdownBeforeServe: a drain that lands before Serve starts, as a
// signal right after the daemon loop writes its -addr-file can, still
// stops each service: Serve then returns ErrServerClosed at once
// instead of serving on with nothing left to stop it.
func TestShutdownBeforeServe(t *testing.T) {
	f, err := New(Config{Backends: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []server.Service{server.New(server.Config{}), f} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Fatalf("%T: Shutdown: %v", svc, err)
		}
		done := make(chan error, 1)
		go func() { done <- svc.Serve(l) }()
		select {
		case err := <-done:
			if !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("%T: Serve returned %v, want ErrServerClosed", svc, err)
			}
		case <-time.After(5 * time.Second):
			svc.Close()
			t.Fatalf("%T: Serve still running after Shutdown", svc)
		}
	}
}

// TestFrontReadyz: readiness reflects the fleet (no healthy backends =>
// 503) and draining (Shutdown => 503), mirroring the idemd contract the
// fleet's own health checks rely on.
func TestFrontReadyz(t *testing.T) {
	s := server.New(server.Config{MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	_, frontURL := newFront(t, []string{addr}, nil)

	get := func() int {
		resp, err := http.Get(frontURL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("readyz with healthy backend: %d", code)
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for get() != http.StatusServiceUnavailable && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead backend: %d, want 503", code)
	}
}

// TestFrontMetricsRender: the exposition contains the fleet families
// with per-backend labels after traffic has flowed.
func TestFrontMetricsRender(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		_, addr := newReplica(t)
		backends = append(backends, addr)
	}
	_, frontURL := newFront(t, backends, nil)
	for i := 0; i < 4; i++ {
		postBody(t, frontURL+"/v1/compile", mustJSON(t, &server.CompileRequest{Source: srcVariant(i)}))
	}
	resp, err := http.Get(frontURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"idemfront_backend_requests_total{backend=",
		"idemfront_backend_healthy{backend=",
		"idemfront_http_requests_total{path=\"/v1/compile\",code=\"200\"}",
		"idemfront_ring_generation",
		"idemfront_rebalance_total",
		"idemfront_failover_total",
		"idemfront_sub_batches_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
