// Daemon-level tests for idemfront: flag validation, the serve/route/
// drain lifecycle against live in-process replicas, and the pprof side
// listener.
package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"idemproc/internal/server"
)

const tinySource = `func main(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
`

func startReplica(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{MaxInFlight: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// launch runs realMain in a goroutine against a fresh port and waits
// for the addr file.
func launch(t *testing.T, stderr io.Writer, extra ...string) (addr string, sigs chan os.Signal, exit chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	sigs = make(chan os.Signal, 2)
	exit = make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, extra...)
	go func() { exit <- realMain(args, stderr, sigs) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil {
			return strings.TrimSpace(string(b)), sigs, exit
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its addr file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitExit(t *testing.T, exit chan int, within time.Duration) int {
	t.Helper()
	select {
	case code := <-exit:
		return code
	case <-time.After(within):
		t.Fatal("daemon did not exit in time")
		return -1
	}
}

func TestBadFlags(t *testing.T) {
	if code := realMain([]string{"-backends", ""}, io.Discard, nil); code != 2 {
		t.Errorf("missing -backends: exit %d, want 2", code)
	}
	if code := realMain([]string{"-backends", "a,a"}, io.Discard, nil); code != 1 {
		t.Errorf("duplicate backends: exit %d, want 1", code)
	}
	if code := realMain([]string{"-backends", "x:1", "stray"}, io.Discard, nil); code != 2 {
		t.Errorf("stray args: exit %d, want 2", code)
	}
}

// TestServeRouteDrain: the daemon boots, routes to live replicas, and
// drains to exit 0 on SIGTERM — the same lifecycle contract idemd has.
func TestServeRouteDrain(t *testing.T) {
	b1, b2 := startReplica(t), startReplica(t)
	addr, sigs, exit := launch(t, io.Discard, "-backends", b1+","+b2)

	resp, err := http.Post("http://"+addr+"/v1/compile", "application/json",
		strings.NewReader(`{"source": `+string(mustQuote(t, tinySource))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile via front: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "idemfront_backend_requests_total") {
		t.Error("front /metrics lacks fleet families")
	}

	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 10*time.Second); code != 0 {
		t.Fatalf("drain exit code %d, want 0", code)
	}
}

func mustQuote(t *testing.T, s string) []byte {
	t.Helper()
	b := make([]byte, 0, len(s)+16)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// syncBuffer lets the test read the daemon's stderr while it writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestPprofSideListener: -pprof-addr exposes /debug/pprof/ on its own
// port, leaving the service listener's surface unchanged.
func TestPprofSideListener(t *testing.T) {
	b1 := startReplica(t)
	var errs syncBuffer
	addr, sigs, exit := launch(t, &errs, "-backends", b1, "-pprof-addr", "127.0.0.1:0")

	re := regexp.MustCompile(`pprof listening on http://([^/]+)/`)
	var pprofAddr string
	deadline := time.Now().Add(5 * time.Second)
	for pprofAddr == "" {
		if m := re.FindStringSubmatch(errs.String()); m != nil {
			pprofAddr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof address never logged; stderr: %s", errs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	// The service listener must NOT serve pprof.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Error("service listener serves /debug/pprof/; it must stay on the side listener")
	}

	sigs <- syscall.SIGTERM
	waitExit(t, exit, 10*time.Second)
}

// TestSecondSignalForcesHardExit: a request parked at its backend holds
// the drain open; the second SIGTERM must cut it short with the hard-
// exit code instead of waiting out the drain timeout, as idemd does.
func TestSecondSignalForcesHardExit(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/compile" {
			arrived <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
	}))
	t.Cleanup(backend.Close)
	t.Cleanup(func() { close(release) })
	addr, sigs, exit := launch(t, io.Discard, "-backends", strings.TrimPrefix(backend.URL, "http://"),
		"-drain-timeout", "5m")

	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/compile", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
		reqErr <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the backend")
	}

	sigs <- syscall.SIGTERM
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 10*time.Second); code != server.ExitHardStop {
		t.Fatalf("hard exit code = %d, want %d", code, server.ExitHardStop)
	}
	if err := <-reqErr; err == nil {
		t.Error("in-flight request completed cleanly despite the forced exit")
	}
}
