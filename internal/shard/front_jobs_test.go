// Front-side async-job contract tests. The load-bearing one mirrors
// the /v1/batch determinism test: a job streamed through a 3-replica
// fleet must reconstruct byte-for-byte into the /v1/batch response a
// single idemd process produces for the same body. The rest pin the
// fleet-grade properties: a replica dying mid-job costs a resubmission,
// not the job; cancel fans out to replica sub-jobs; and identical
// compiles single-flight through the failover window.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idemproc/internal/server"
)

// slowVariant is srcVariant's expensive sibling: distinct content keys
// that each take long enough to leave a kill/cancel window.
func slowVariant(i int) string {
	return fmt.Sprintf("func main(int n) int {\n\tint s = %d;\n\tint t = 1;\n\tfor (int i = 0; i < n; i = i + 1) { s = s + i; t = t + s; }\n\treturn s + t;\n}\n", i)
}

// jobBatch spans several content keys (so the front splits it) and
// includes an in-band per-unit error.
func jobBatch(t *testing.T) []byte {
	t.Helper()
	return mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
		{Simulate: &server.SimulateRequest{Source: frontTinySrc, Args: []uint64{10}}},
		{Compile: &server.CompileRequest{Source: "not a program"}},
		{Compile: &server.CompileRequest{Source: srcVariant(1)}},
		{Simulate: &server.SimulateRequest{Source: srcVariant(2), Args: []uint64{5}, Scheme: "idem"}},
		{Compile: &server.CompileRequest{Source: srcVariant(3)}},
	}})
}

func submitFrontJob(t *testing.T, url string, body []byte) server.SubmitResponse {
	t.Helper()
	status, resp := postBody(t, url+"/v1/jobs", body)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, resp)
	}
	var sub server.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return sub
}

// cancelFrontJob DELETEs a front job and checks that it reports canceled.
func cancelFrontJob(t *testing.T, url, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr server.CancelResponse
	if err := json.Unmarshal(b, &cr); err != nil || cr.State != "canceled" {
		t.Fatalf("cancel response: %s (%v)", b, err)
	}
}

// streamFrontJob reads the NDJSON stream from cursor to the end.
func streamFrontJob(t *testing.T, url, id string, cursor int) [][]byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?cursor=%d", url, id, cursor))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	var lines [][]byte
	for _, l := range bytes.Split(raw, []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// reconstruct derives the /v1/batch response body from stream lines.
func reconstruct(lines [][]byte) []byte {
	return append(append([]byte(`{"results":[`), bytes.Join(lines, []byte(","))...), []byte("]}\n")...)
}

type frontPollReply struct {
	State      string            `json:"state"`
	Units      int               `json:"units"`
	NextCursor int               `json:"next_cursor"`
	Error      string            `json:"error"`
	Results    []json.RawMessage `json:"results"`
}

func pollFrontJob(t *testing.T, url, id string, cursor, waitMS int) frontPollReply {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?cursor=%d&wait=%d", url, id, cursor, waitMS))
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d: %s", resp.StatusCode, b)
	}
	var rep frontPollReply
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("poll response: %v", err)
	}
	return rep
}

// TestFrontJobMatchesBatchBytes: stream and cursor-poll reconstructions
// through a 3-replica fleet are byte-identical to a single process's
// /v1/batch response for the same body.
func TestFrontJobMatchesBatchBytes(t *testing.T) {
	ref, _ := newReplica(t)
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)

	var backends []string
	for i := 0; i < 3; i++ {
		_, addr := newReplica(t)
		backends = append(backends, addr)
	}
	_, url := newFront(t, backends, nil)

	body := jobBatch(t)
	refStatus, refBatch := postBody(t, refTS.URL+"/v1/batch", body)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, refBatch)
	}

	sub := submitFrontJob(t, url, body)
	if sub.Units != 6 || sub.State != "running" {
		t.Fatalf("submit response: %+v", sub)
	}

	lines := streamFrontJob(t, url, sub.ID, 0)
	if len(lines) != sub.Units {
		t.Fatalf("streamed %d lines, want %d", len(lines), sub.Units)
	}
	if got := reconstruct(lines); !bytes.Equal(got, refBatch) {
		t.Fatalf("stream reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}

	// Cursor-poll the same job; the concatenation across polls must be
	// the same bytes.
	var polled [][]byte
	cursor := 0
	for {
		rep := pollFrontJob(t, url, sub.ID, cursor, 2000)
		for _, r := range rep.Results {
			polled = append(polled, []byte(r))
		}
		cursor = rep.NextCursor
		if cursor >= sub.Units {
			if rep.State != "done" {
				t.Fatalf("job ended %q, want done", rep.State)
			}
			break
		}
	}
	if got := reconstruct(polled); !bytes.Equal(got, refBatch) {
		t.Fatalf("poll reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}

	// Suffix stream resume: cursor=2 must replay exactly lines[2:].
	suffix := streamFrontJob(t, url, sub.ID, 2)
	if len(suffix) != sub.Units-2 {
		t.Fatalf("suffix stream: %d lines, want %d", len(suffix), sub.Units-2)
	}
	for i, l := range suffix {
		if !bytes.Equal(l, lines[i+2]) {
			t.Fatalf("suffix line %d diverges", i)
		}
	}
}

// TestFrontJobSurvivesReplicaDeath: killing a replica with an active
// sub-job resubmits the remainder elsewhere; the merged stream still
// reconstructs the single-process bytes.
func TestFrontJobSurvivesReplicaDeath(t *testing.T) {
	ref, _ := newReplica(t)
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)

	var backends []string
	var servers []*server.Server
	var listeners []*httptest.Server
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		listeners = append(listeners, ts)
		backends = append(backends, strings.TrimPrefix(ts.URL, "http://"))
	}
	f, url := newFront(t, backends, nil)

	// Slow, key-diverse units: each replica that owns a group has a
	// visible window where its sub-job is running.
	var units []server.BatchUnit
	for i := 0; i < 6; i++ {
		units = append(units, server.BatchUnit{
			Simulate: &server.SimulateRequest{Source: slowVariant(i), Args: []uint64{400_000}},
		})
	}
	body := mustJSON(t, &server.BatchRequest{Units: units})
	refStatus, refBatch := postBody(t, refTS.URL+"/v1/batch", body)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, refBatch)
	}

	sub := submitFrontJob(t, url, body)

	// Find a replica actively running a sub-job and kill it.
	killed := -1
	deadline := time.Now().Add(10 * time.Second)
	for killed < 0 && time.Now().Before(deadline) {
		for i, s := range servers {
			if s.Jobs().Stats().Active > 0 {
				killed = i
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if killed < 0 {
		t.Fatal("no replica ever had an active sub-job")
	}
	listeners[killed].CloseClientConnections()
	listeners[killed].Close()

	lines := streamFrontJob(t, url, sub.ID, 0)
	if len(lines) != len(units) {
		rep := pollFrontJob(t, url, sub.ID, 0, 0)
		t.Fatalf("streamed %d/%d lines; job state %q (%s)", len(lines), len(units), rep.State, rep.Error)
	}
	if got := reconstruct(lines); !bytes.Equal(got, refBatch) {
		t.Fatalf("post-kill reconstruction diverges from single-process batch:\n got: %s\nwant: %s", got, refBatch)
	}
	if n := f.Metrics().SubJobRetries.Load(); n < 1 {
		t.Fatalf("expected at least one sub-job resubmission, got %d", n)
	}
}

// TestFrontJobFailsOverInRingOrder: killing the owner of a one-unit
// front job mid-poll resubmits the unit once, to the ring's second
// owner, the replica route would send the same key to. The third owner
// gets no submit.
func TestFrontJobFailsOverInRingOrder(t *testing.T) {
	var backends []string
	listeners := map[string]*httptest.Server{}
	servers := map[string]*server.Server{}
	submits := map[string]*atomic.Int64{}
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
		n := new(atomic.Int64)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				n.Add(1)
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		addr := strings.TrimPrefix(ts.URL, "http://")
		backends = append(backends, addr)
		listeners[addr], servers[addr], submits[addr] = ts, s, n
	}
	f, url := newFront(t, backends, nil)

	req := &server.SimulateRequest{Source: slowVariant(0), Args: []uint64{1_000_000}}
	owners := f.Ring().Owners(keyString(req.RouteKey()))
	sub := submitFrontJob(t, url, mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{{Simulate: req}}}))

	deadline := time.Now().Add(10 * time.Second)
	for servers[owners[0]].Jobs().Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the owner never ran the sub-job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	listeners[owners[0]].CloseClientConnections()
	listeners[owners[0]].Close()

	rep := pollFrontJob(t, url, sub.ID, 0, 20000)
	if rep.State != "done" || len(rep.Results) != 1 {
		t.Fatalf("job state %q with %d results (%s), want done with 1", rep.State, len(rep.Results), rep.Error)
	}
	if n := submits[owners[1]].Load(); n != 1 {
		t.Errorf("second owner got %d sub-job submits, want 1", n)
	}
	if n := submits[owners[2]].Load(); n != 0 {
		t.Errorf("third owner got %d sub-job submits, want 0", n)
	}
	if n := f.Metrics().SubJobRetries.Load(); n != 1 {
		t.Errorf("sub-job retries = %d, want 1", n)
	}
}

// TestFrontJobCancelFansOut: DELETE on the front job cancels the
// replica-side sub-jobs so the fleet stops computing unread results.
func TestFrontJobCancelFansOut(t *testing.T) {
	var backends []string
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		backends = append(backends, strings.TrimPrefix(ts.URL, "http://"))
	}
	_, url := newFront(t, backends, nil)

	var units []server.BatchUnit
	for i := 0; i < 3; i++ {
		units = append(units, server.BatchUnit{
			Simulate: &server.SimulateRequest{Source: slowVariant(i), Args: []uint64{100_000_000}},
		})
	}
	sub := submitFrontJob(t, url, mustJSON(t, &server.BatchRequest{Units: units}))

	// Wait until at least one replica is actually running a sub-job.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := int64(0)
		for _, s := range servers {
			n += s.Jobs().Stats().Active
		}
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancelFrontJob(t, url, sub.ID)

	// The mergers' best-effort DELETEs land on the replicas shortly.
	for time.Now().Before(deadline) {
		n := int64(0)
		for _, s := range servers {
			n += s.Jobs().Stats().Canceled
		}
		if n > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no replica sub-job was ever canceled")
}

// TestFrontJobCancelDuringSubmit: a DELETE that lands after a replica
// admitted a sub-job but before the front read its handle still cancels
// that sub-job. A proxy in front of the replica holds the submit response
// until the front job is canceled.
func TestFrontJobCancelDuringSubmit(t *testing.T) {
	s := server.New(server.Config{MaxInFlight: 128, RequestTimeout: time.Minute, Workers: 1})
	replica := httptest.NewServer(s.Handler())
	t.Cleanup(replica.Close)
	addr := replica.Listener.Addr().String()
	admitted := make(chan struct{}, 1)
	hold := make(chan struct{})
	proxy := httptest.NewServer(&httputil.ReverseProxy{
		Director: func(r *http.Request) { r.URL.Scheme, r.URL.Host = "http", addr },
		ModifyResponse: func(resp *http.Response) error {
			if resp.Request.Method == http.MethodPost && resp.Request.URL.Path == "/v1/jobs" {
				admitted <- struct{}{}
				<-hold
			}
			return nil
		},
	})
	t.Cleanup(proxy.Close)
	_, url := newFront(t, []string{strings.TrimPrefix(proxy.URL, "http://")}, nil)
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)

	sub := submitFrontJob(t, url, mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Simulate: &server.SimulateRequest{Source: slowVariant(0), Args: []uint64{100_000_000}}},
	}}))
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("the replica never admitted the sub-job")
	}
	cancelFrontJob(t, url, sub.ID)
	release()

	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if s.Jobs().Stats().Canceled > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("the replica's sub-job was never canceled")
}

// TestFrontJobValidation pins the front's job error surface to a
// replica's, byte for byte: unknown handles, cursor and wait bounds,
// the method filter, and the answer to submissions the shared batch
// parser rejects.
func TestFrontJobValidation(t *testing.T) {
	_, refAddr := newReplica(t)
	refURL := "http://" + refAddr
	rs, addr := newReplica(t)
	_, url := newFront(t, []string{addr}, nil)

	type answer struct {
		status int
		allow  string
		body   string
	}
	do := func(method, url string) answer {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return answer{resp.StatusCode, resp.Header.Get("Allow"), string(b)}
	}
	same := func(what string, front, ref answer, want int) {
		t.Helper()
		if front != ref || front.status != want {
			t.Errorf("%s: front %+v, replica %+v, want status %d", what, front, ref, want)
		}
	}

	// Unknown handle: poll, stream, cancel.
	for _, rq := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/zzz"},
		{http.MethodGet, "/v1/jobs/zzz/stream"},
		{http.MethodDelete, "/v1/jobs/zzz"},
	} {
		same(rq.method+" "+rq.path, do(rq.method, url+rq.path), do(rq.method, refURL+rq.path), http.StatusNotFound)
	}

	// Submits the shared batch parser rejects get the replica's bytes
	// from the front's own copy of the parser, and mint no replica-side
	// handle: an invalid shape, and a batch one unit over the shared
	// bound.
	units := make([]server.BatchUnit, server.MaxBatchUnits+1)
	for i := range units {
		units[i].Compile = &server.CompileRequest{Workload: "mcf"}
	}
	for _, body := range [][]byte{[]byte(`{"units": []}`), mustJSON(t, &server.BatchRequest{Units: units})} {
		fStatus, fResp := postBody(t, url+"/v1/jobs", body)
		rStatus, rResp := postBody(t, refURL+"/v1/jobs", body)
		if fStatus != http.StatusBadRequest || fStatus != rStatus || !bytes.Equal(fResp, rResp) {
			t.Errorf("unsplittable submit: front (%d, %s) vs replica (%d, %s)", fStatus, fResp, rStatus, rResp)
		}
	}
	if n := rs.Jobs().Stats().Tracked; n != 0 {
		t.Errorf("replica holds %d jobs after rejected submits", n)
	}

	// One-unit jobs on both for the cursor, wait and method checks.
	body := mustJSON(t, &server.BatchRequest{Units: []server.BatchUnit{
		{Compile: &server.CompileRequest{Source: srcVariant(0)}},
	}})
	fID := submitFrontJob(t, url, body).ID
	rID := submitFrontJob(t, refURL, body).ID
	for _, q := range []string{"cursor=2", "cursor=-1", "cursor=abc", "wait=abc", "wait=-5"} {
		same("GET ?"+q, do(http.MethodGet, url+"/v1/jobs/"+fID+"?"+q),
			do(http.MethodGet, refURL+"/v1/jobs/"+rID+"?"+q), http.StatusBadRequest)
	}
	same("PATCH", do(http.MethodPatch, url+"/v1/jobs/"+fID),
		do(http.MethodPatch, refURL+"/v1/jobs/"+rID), http.StatusMethodNotAllowed)
}
