package shard

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"idemproc/internal/server"
)

// answer is the part of a response the front must reproduce.
type answer struct {
	status                         int
	contentType, allow, retryAfter string
	body                           string
}

// jobID matches a minted job handle, which differs between any two job
// tables.
var jobID = regexp.MustCompile(`j[0-9a-f]{16}`)

// rawRequest frames one HTTP/1.1 request with a Content-Length body.
func rawRequest(method, target string, body []byte) []byte {
	return fmt.Appendf(nil, "%s %s HTTP/1.1\r\nHost: idemd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, target, len(body), body)
}

// badChunk is a POST whose chunked body has chunk length "zz": the body
// fails to read.
func badChunk(path string) []byte {
	return []byte("POST " + path + " HTTP/1.1\r\nHost: idemd\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n")
}

// exchange writes raw to addr over one TCP connection and reads the
// first final response (status 0 if none comes). req is raw's parsed
// head, or nil. When raw holds a whole request, the connection stays
// open until the answer arrives, because a server cancels a request
// whose client has closed its side; otherwise the write side is closed,
// so the server reads the end of the input instead of waiting for more.
func exchange(t *testing.T, addr string, raw []byte, req *http.Request, whole bool) answer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	c.Write(raw) // a server may answer and close before reading it all
	if !whole {
		c.(*net.TCPConn).CloseWrite()
	}
	br := bufio.NewReader(c)
	for {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			return answer{}
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 200 || resp.StatusCode < 100 {
			h := resp.Header
			return answer{resp.StatusCode, h.Get("Content-Type"), h.Get("Allow"), h.Get("Retry-After"),
				string(jobID.ReplaceAll(body, []byte("j<id>")))}
		}
	}
}

// serveOn serves svc on a loopback port until the test ends and returns
// the address.
func serveOn(tb testing.TB, svc server.Service) string {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go svc.Serve(l)
	tb.Cleanup(func() { svc.Close() })
	return l.Addr().String()
}

// FuzzFrontMatchesReplica writes raw HTTP/1.1 request bytes over TCP to
// a reference replica and to a front over one replica, and requires the
// same status, Content-Type, Allow and Retry-After headers and body from
// both, with minted job ids masked. Raw bytes reach framing, method,
// path, query and body at once; net/http's own answers are the same on
// both sides. Requests outside /v1 are skipped: the front's /healthz,
// /readyz and /metrics are its own by design. Both sides bound
// simulation by the same small MaxSimSteps, so a valid simulate stays
// cheap.
func FuzzFrontMatchesReplica(f *testing.F) {
	cfg := server.Config{MaxSimSteps: 1 << 16, CacheMaxBytes: 32 << 20}
	ref := serveOn(f, server.New(cfg))
	front, err := New(Config{Backends: []string{serveOn(f, server.New(cfg))}})
	if err != nil {
		f.Fatal(err)
	}
	frontAddr := serveOn(f, front)

	paths, bodies := battery(f)
	for i := range paths {
		f.Add(rawRequest(http.MethodPost, paths[i], bodies[i]))
	}
	// TestFrontJobValidation's requests, on a handle neither side minted.
	for _, rq := range []struct{ method, target string }{
		{http.MethodGet, "/v1/jobs/zzz"},
		{http.MethodGet, "/v1/jobs/zzz/stream"},
		{http.MethodDelete, "/v1/jobs/zzz"},
		{http.MethodGet, "/v1/jobs/zzz?cursor=2"},
		{http.MethodGet, "/v1/jobs/zzz?cursor=-1"},
		{http.MethodGet, "/v1/jobs/zzz?cursor=abc"},
		{http.MethodGet, "/v1/jobs/zzz?wait=abc"},
		{http.MethodGet, "/v1/jobs/zzz?wait=-5"},
		{http.MethodPatch, "/v1/jobs/zzz"},
	} {
		f.Add(rawRequest(rq.method, rq.target, nil))
	}
	units := make([]server.BatchUnit, server.MaxBatchUnits+1)
	for i := range units {
		units[i].Compile = &server.CompileRequest{Workload: "mcf"}
	}
	for _, body := range [][]byte{
		[]byte(`{"units": []}`),
		mustJSON(f, &server.BatchRequest{Units: units}),
		mustJSON(f, &server.BatchRequest{Units: []server.BatchUnit{{Compile: &server.CompileRequest{Source: srcVariant(0)}}}}),
		// A repeated "units" key, which a whole-body decode merges.
		[]byte(`{"units": [{"compile": {"workload": "mcf"}}], "units": [{"compile": {"source": "func main() int { return 1; }"}}]}`),
	} {
		f.Add(rawRequest(http.MethodPost, "/v1/jobs", body))
		f.Add(rawRequest(http.MethodPost, "/v1/batch", body))
	}
	for _, path := range []string{"/v1/compile", "/v1/batch", "/v1/jobs"} {
		f.Add(badChunk(path))
	}
	f.Add(rawRequest(http.MethodPost, "/v1/compile", []byte(`{"workload": "mcf"}]`)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		whole := err == nil
		if whole {
			if !strings.HasPrefix(req.URL.Path, "/v1/") {
				t.Skip("outside /v1")
			}
			_, err = io.ReadAll(req.Body)
			whole = err == nil
		}
		want := exchange(t, ref, raw, req, whole)
		if got := exchange(t, frontAddr, raw, req, whole); got != want {
			t.Errorf("request %q:\nfront   %+v\nreplica %+v", raw, got, want)
		}
	})
}
