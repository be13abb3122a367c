package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"idemproc/internal/metrics"
	"idemproc/internal/server"
)

// launch runs realMain in a goroutine against a fresh port and waits
// for the addr file, returning the bound address, the signal channel
// and the exit-code channel.
func launch(t *testing.T, extra ...string) (addr string, sigs chan os.Signal, exit chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	sigs = make(chan os.Signal, 2)
	exit = make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, extra...)
	go func() { exit <- realMain(args, io.Discard, sigs) }()

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

// postJSON fires one request and returns the response body; non-200 is
// fatal.
func postJSON(t *testing.T, addr, path, body string) []byte {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// scrapeCounter reads one unlabelled series from /metrics. A page that
// does not parse, or lacks the series, fails the test.
func scrapeCounter(t *testing.T, addr, name string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	m, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	v, ok := m[name]
	if !ok {
		t.Fatalf("metric %s not exposed", name)
	}
	return int64(v)
}

// artifactPaths lists the .art files under dir.
func artifactPaths(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".art") {
			files = append(files, path)
		}
		return nil
	})
	return files
}

// restartRequests is the fixed request set the persistence e2e tests
// replay across daemon restarts: two distinct compile keys and one
// simulation (a third key: the conventional pipeline).
var restartRequests = []struct{ path, body string }{
	{"/v1/compile", `{"workload": "bzip2"}`},
	{"/v1/compile", `{"workload": "mcf", "options": {"core": {"max_region_size": 16}}}`},
	{"/v1/simulate", `{"workload": "libquantum", "scheme": "none"}`},
}

// TestCacheDirWarmRestart is the end-to-end persistence contract: run
// idemd -cache-dir, serve a request set, SIGTERM (which flushes the
// artifact store), restart over the same directory, and assert the
// replayed requests produce byte-identical bodies with zero compiles
// and every build served from disk.
func TestCacheDirWarmRestart(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "artifacts")

	addr, sigs, exit := launch(t, "-cache-dir", cacheDir)
	bodies := make([][]byte, len(restartRequests))
	for i, rq := range restartRequests {
		bodies[i] = postJSON(t, addr, rq.path, rq.body)
	}
	firstCompiles := scrapeCounter(t, addr, "idemd_buildcache_compiles_total")
	if firstCompiles == 0 {
		t.Fatal("first run compiled nothing")
	}
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("drain exit = %d, want 0", code)
	}
	arts := artifactPaths(t, cacheDir)
	if int64(len(arts)) != firstCompiles {
		t.Fatalf("%d artifacts persisted, want %d (one per compile)", len(arts), firstCompiles)
	}

	// Restart over the same store.
	addr, sigs, exit = launch(t, "-cache-dir", cacheDir)
	for i, rq := range restartRequests {
		got := postJSON(t, addr, rq.path, rq.body)
		if !bytes.Equal(got, bodies[i]) {
			t.Errorf("request %d (%s): body differs across restart:\n first %s\n again %s",
				i, rq.path, bodies[i], got)
		}
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_compiles_total"); n != 0 {
		t.Errorf("warm restart ran %d compiles, want 0", n)
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_disk_hits_total"); n != firstCompiles {
		t.Errorf("warm restart: %d disk hits, want %d (one per distinct key)", n, firstCompiles)
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_disk_corrupt_total"); n != 0 {
		t.Errorf("healthy store reported %d corrupt artifacts", n)
	}
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("second drain exit = %d, want 0", code)
	}
}

// TestCacheDirCorruptArtifactHeals: a truncated or bit-flipped artifact
// must be counted corrupt, transparently recompiled to the same
// response, and re-persisted healthy.
func TestCacheDirCorruptArtifactHeals(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "artifacts")
	const path, body = "/v1/compile", `{"workload": "bzip2"}`

	addr, sigs, exit := launch(t, "-cache-dir", cacheDir)
	want := postJSON(t, addr, path, body)
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("drain exit = %d, want 0", code)
	}

	corrupt := func(name string, mut func([]byte) []byte) {
		arts := artifactPaths(t, cacheDir)
		if len(arts) != 1 {
			t.Fatalf("%s: %d artifacts, want 1", name, len(arts))
		}
		data, err := os.ReadFile(arts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(arts[0], mut(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Bit-flip: the boot scan's checksum verification already prunes the
	// file, so the request recompiles with a plain disk miss.
	corrupt("bitflip", func(data []byte) []byte {
		out := append([]byte{}, data...)
		out[len(out)-1] ^= 0x01
		return out
	})
	addr, sigs, exit = launch(t, "-cache-dir", cacheDir)
	if got := postJSON(t, addr, path, body); !bytes.Equal(got, want) {
		t.Errorf("recompile after bit flip: body differs")
	}
	bootPruned := len(artifactPaths(t, cacheDir)) == 0 ||
		scrapeCounter(t, addr, "idemd_buildcache_disk_corrupt_total") > 0
	if !bootPruned {
		t.Error("bit-flipped artifact neither pruned at boot nor counted corrupt")
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_compiles_total"); n != 1 {
		t.Errorf("%d compiles after bit flip, want 1 (transparent recompile)", n)
	}
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("drain exit = %d, want 0", code)
	}

	// Truncation, same contract; the drain above re-persisted a healthy
	// artifact, so there is a file to damage again.
	corrupt("truncate", func(data []byte) []byte { return data[:len(data)/3] })
	addr, sigs, exit = launch(t, "-cache-dir", cacheDir)
	if got := postJSON(t, addr, path, body); !bytes.Equal(got, want) {
		t.Errorf("recompile after truncation: body differs")
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_compiles_total"); n != 1 {
		t.Errorf("%d compiles after truncation, want 1", n)
	}
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("final drain exit = %d, want 0", code)
	}
	// After the final drain the store is healthy again: a last restart
	// serves the key from disk with zero compiles.
	addr, sigs, exit = launch(t, "-cache-dir", cacheDir)
	if got := postJSON(t, addr, path, body); !bytes.Equal(got, want) {
		t.Errorf("healed artifact served a different body")
	}
	if n := scrapeCounter(t, addr, "idemd_buildcache_compiles_total"); n != 0 {
		t.Errorf("healed store still compiled %d times", n)
	}
	sigs <- syscall.SIGTERM
	waitExit(t, exit, 15*time.Second)
}

// TestCacheDirUnusableFailsFast: a cache-dir that cannot be created is
// a startup error, not a silent memory-only daemon.
func TestCacheDirUnusableFailsFast(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-cache-dir", filepath.Join(file, "sub")},
			io.Discard, make(chan os.Signal))
	}()
	if code := waitExit(t, exit, 10*time.Second); code != 1 {
		t.Fatalf("unusable cache-dir exit = %d, want 1", code)
	}
}

// TestVerifyModeSampledRejected: verification is off or full, so any
// other spelling, the deleted sampled mode included, is a usage error
// that names the two valid modes.
func TestVerifyModeSampledRejected(t *testing.T) {
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-verify-mode", "sampled"},
			&stderr, make(chan os.Signal))
	}()
	if code := waitExit(t, exit, 10*time.Second); code != 2 {
		t.Fatalf("-verify-mode sampled exit = %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "want off or full") {
		t.Errorf("stderr %q does not name the valid modes", msg)
	}
}

// TestGracefulDrainExitsZero: one signal, idle daemon, clean exit.
func TestGracefulDrainExitsZero(t *testing.T) {
	addr, sigs, exit := launch(t)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 15*time.Second); code != 0 {
		t.Fatalf("graceful drain exit = %d, want 0", code)
	}
}

// TestSecondSignalForcesHardExit: a long simulation holds the drain
// open; the second SIGTERM must cut it short with the distinct hard-
// exit code instead of waiting out the drain timeout.
func TestSecondSignalForcesHardExit(t *testing.T) {
	// Long drain timeout: if the hard-exit path is broken this test
	// fails by timeout rather than passing by accident.
	addr, sigs, exit := launch(t, "-drain-timeout", "5m", "-request-timeout", "5m")

	// Park a slow simulation in the server (~200M instructions, well
	// under the step cap but minutes of wall time under -race).
	body := []byte(`{"source": "func main(int n) int {\n int s = 0;\n int t = 1;\n for (int i = 0; i < n; i = i + 1) { s = s + i; t = t + s; }\n return s + t;\n}\n", "args": [200000000]}`)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		reqErr <- err
	}()

	// Wait until the simulate request is actually in flight: the scrape
	// itself counts in the gauge, so look for >= 2.
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		inFlight := 0
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(b), "\n") {
				if v, ok := strings.CutPrefix(line, "idemd_http_inflight_requests "); ok {
					fmt.Sscanf(v, "%d", &inFlight)
				}
			}
		}
		if inFlight >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow simulation never showed up in flight")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// First signal starts the drain (which the parked simulation holds
	// open); the second must force the hard exit immediately.
	sigs <- syscall.SIGTERM
	sigs <- syscall.SIGTERM
	if code := waitExit(t, exit, 20*time.Second); code != server.ExitHardStop {
		t.Fatalf("hard exit code = %d, want %d", code, server.ExitHardStop)
	}
	// The abandoned request observes a transport error, not a response.
	if err := <-reqErr; err == nil {
		t.Error("in-flight request completed cleanly despite the forced exit")
	}
}
