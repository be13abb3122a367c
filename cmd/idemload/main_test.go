package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idemproc/internal/server"
	"idemproc/internal/shard"
)

// startServer boots a real idemd core on a loopback port and returns
// its address. The listener and connections die with the test.
func startServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Generous request timeout and a low step cap: simulations run an
	// order of magnitude slower under -race, and this test is about
	// transport faults, not simulator throughput. A step-capped run
	// still yields a deterministic 200 (the cap lands in the report's
	// error field), which is all the digest needs.
	srv := server.New(server.Config{
		RequestTimeout: 5 * time.Minute,
		MaxSimSteps:    1 << 22,
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// startFront boots a shard front over the given replica addresses.
func startFront(t *testing.T, backends []string) string {
	t.Helper()
	f, err := shard.New(shard.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go f.Serve(l)
	t.Cleanup(func() { f.Close() })
	return l.Addr().String()
}

// loadSummary reads a -json output file.
func loadSummary(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return m
}

// TestChaosCampaignConverges is the end-to-end resilience proof: a
// seeded fault proxy injects latency, 500s, connection resets and
// truncated bodies, and with retries enabled the campaign must still
// finish with zero permanently failed requests and the *same* response
// digest as a fault-free run — recovery by re-execution, end to end. Rerunning the
// same chaos seed must reproduce the same outcome.
func TestChaosCampaignConverges(t *testing.T) {
	addr := startServer(t)
	dir := t.TempDir()

	run := func(name string, extra ...string) map[string]any {
		t.Helper()
		out := filepath.Join(dir, name+".json")
		args := append([]string{
			"-addr", addr, "-requests", "32", "-concurrency", "8",
			"-seed", "11", "-quiet", "-json", out,
		}, extra...)
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr, nil); code != 0 {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", name, code, stdout.String(), stderr.String())
		}
		return loadSummary(t, out)
	}

	clean := run("clean")
	chaosArgs := []string{
		"-chaos-seed", "3", "-chaos-rates", "12,8,8,8", "-retries", "8",
	}
	chaotic := run("chaos", chaosArgs...)
	replay := run("chaos-replay", chaosArgs...)

	// Zero lost requests, same digest as fault-free.
	if got, want := chaotic["digest"], clean["digest"]; got != want {
		t.Errorf("chaos digest %v != clean digest %v — faults changed responses", got, want)
	}
	res, ok := chaotic["resilience"].(map[string]any)
	if !ok {
		t.Fatalf("summary has no resilience section: %v", chaotic)
	}
	if fails := res["failures"].(float64); fails != 0 {
		t.Errorf("permanent failures = %v, want 0", fails)
	}
	if errs := chaotic["errors"].(float64); errs != 0 {
		t.Errorf("errors = %v, want 0", errs)
	}

	// The campaign must actually have injected faults — otherwise the
	// test proves nothing.
	ch, ok := chaotic["chaos"].(map[string]any)
	if !ok {
		t.Fatalf("summary has no chaos section: %v", chaotic)
	}
	inj := ch["injected"].(map[string]any)
	faults := inj["errors_500"].(float64) + inj["resets"].(float64) + inj["truncates"].(float64)
	if faults == 0 {
		t.Error("chaos proxy injected no faults; campaign was vacuous")
	}
	if res["retries"].(float64) == 0 {
		t.Error("no retries happened despite injected faults")
	}

	// Same seed, same outcome: the converged digest is reproducible.
	if got, want := replay["digest"], chaotic["digest"]; got != want {
		t.Errorf("replayed chaos digest %v != first chaos digest %v", got, want)
	}
}

// TestInterruptFlushesPartialJSON: SIGINT mid-pass must flush the
// partial summary (interrupted: true, completed < requested) and exit
// 130 instead of discarding the measurements.
func TestInterruptFlushesPartialJSON(t *testing.T) {
	addr := startServer(t)
	out := filepath.Join(t.TempDir(), "partial.json")

	sigs := make(chan os.Signal, 2)
	go func() {
		time.Sleep(300 * time.Millisecond)
		sigs <- os.Interrupt
	}()

	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-addr", addr, "-requests", "1000000", "-concurrency", "4",
		"-seed", "2", "-quiet", "-json", out,
	}, &stdout, &stderr, sigs)
	if code != exitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
	}

	m := loadSummary(t, out)
	if m["interrupted"] != true {
		t.Errorf("interrupted = %v, want true", m["interrupted"])
	}
	completed := m["completed_requests"].(float64)
	if completed <= 0 || completed >= 1000000 {
		t.Errorf("completed_requests = %v, want a partial count", completed)
	}
}

// TestFleetCampaignMatchesBaseline: the same seeded campaign through a
// 3-replica front must reproduce a single replica's digest exactly
// (-expect-digest), compile each distinct key exactly once fleet-wide
// (summed misses == baseline misses), spread hits across every replica
// (an each: assertion), and pass a fleet-wide hit-ratio assertion — the
// cross-fleet identity check make shard-smoke runs against real
// processes.
func TestFleetCampaignMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, args ...string) (int, map[string]any, string) {
		t.Helper()
		out := filepath.Join(dir, name+".json")
		var stdout, stderr bytes.Buffer
		code := realMain(append(args, "-quiet", "-json", out), &stdout, &stderr, nil)
		if _, err := os.Stat(out); err != nil {
			t.Fatalf("%s: no summary written: %v\nstderr: %s", name, err, stderr.String())
		}
		return code, loadSummary(t, out), stderr.String()
	}

	// Baseline: one replica, two passes (the second warms to pure hits).
	baseAddr := startServer(t)
	code, baseSum, errs := run("base",
		"-addr", baseAddr, "-requests", "40", "-concurrency", "8", "-seed", "5", "-repeat", "2")
	if code != 0 {
		t.Fatalf("baseline: exit %d\n%s", code, errs)
	}
	digest, _ := baseSum["digest"].(string)
	if digest == "" {
		t.Fatal("baseline summary has no digest")
	}
	baseCache := baseSum["cache"].(map[string]any)

	// Fleet: same campaign through the front, scraping all replicas.
	var backends []string
	for i := 0; i < 3; i++ {
		backends = append(backends, startServer(t))
	}
	frontAddr := startFront(t, backends)
	scrape := backends[0] + "," + backends[1] + "," + backends[2]
	code, fleetSum, errs := run("fleet",
		"-addr", frontAddr, "-scrape", scrape,
		"-requests", "40", "-concurrency", "8", "-seed", "5", "-repeat", "2",
		"-expect-digest", digest,
		"-assert", "each:idemd_buildcache_hits_total >= 1",
		"-assert", "idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total >= 0.4")
	if code != 0 {
		t.Fatalf("fleet: exit %d\n%s", code, errs)
	}
	if fleetSum["scrape_errors"].(float64) != 0 {
		t.Errorf("scrape_errors = %v, want 0", fleetSum["scrape_errors"])
	}
	fleetCache := fleetSum["cache"].(map[string]any)
	if got, want := fleetCache["misses"], baseCache["misses"]; got != want {
		t.Errorf("fleet misses %v != baseline misses %v: partitioning should compile each key exactly once", got, want)
	}
	reps, _ := fleetSum["replicas"].([]any)
	if len(reps) != 3 {
		t.Fatalf("replicas section has %d entries, want 3", len(reps))
	}
	for _, r := range reps {
		m := r.(map[string]any)
		if m["error"] != nil {
			t.Errorf("replica %v reported scrape error %v", m["target"], m["error"])
		}
	}

	// A wrong expectation must fail the run after the fact.
	code, _, _ = run("fleet-bad-digest",
		"-addr", frontAddr, "-scrape", scrape,
		"-requests", "8", "-concurrency", "4", "-seed", "5",
		"-expect-digest", "0000000000000000")
	if code != 1 {
		t.Errorf("wrong -expect-digest: exit %d, want 1", code)
	}
	if code := realMain([]string{"-addr", frontAddr, "-expect-digest", "zz"}, &bytes.Buffer{}, &bytes.Buffer{}, nil); code != 2 {
		t.Errorf("malformed -expect-digest: exit %d, want 2", code)
	}
}

// TestScrapeErrorsAreExplicit: a failing scrape target must fail the
// run, and the JSON summary must carry scrape_errors and drop the
// cache/disk sections rather than report a misleading partial sum.
func TestScrapeErrorsAreExplicit(t *testing.T) {
	addr := startServer(t)
	// Grab a port and close it again: scrapes will be refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	out := filepath.Join(t.TempDir(), "scrapefail.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-addr", addr, "-scrape", addr + "," + dead,
		"-requests", "4", "-concurrency", "2", "-quiet", "-json", out,
	}, &stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	m := loadSummary(t, out)
	if m["failure"] != "metrics scrape failed" {
		t.Errorf("failure = %v, want %q", m["failure"], "metrics scrape failed")
	}
	if m["scrape_errors"].(float64) != 1 {
		t.Errorf("scrape_errors = %v, want 1", m["scrape_errors"])
	}
	if _, present := m["cache"]; present {
		t.Error("cache section present despite a failed scrape; partial sums must not be reported")
	}
	reps := m["replicas"].([]any)
	if len(reps) != 2 {
		t.Fatalf("replicas section has %d entries, want 2", len(reps))
	}
	if reps[1].(map[string]any)["error"] == nil {
		t.Error("dead target's replica entry lacks an error field")
	}
}

// TestMidRunFailureFlushesJSON: a permanently failing run (no server
// behind the address) still writes the summary with a failure note and
// exits 1.
func TestMidRunFailureFlushesJSON(t *testing.T) {
	// Grab a port and close it again: connections will be refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	out := filepath.Join(t.TempDir(), "failed.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-addr", addr, "-requests", "4", "-concurrency", "2",
		"-quiet", "-json", out,
	}, &stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	m := loadSummary(t, out)
	if m["failure"] != "requests failed" {
		t.Errorf("failure = %v, want %q", m["failure"], "requests failed")
	}
	if m["errors"].(float64) == 0 {
		t.Error("errors = 0 in a failed run's summary")
	}
}

// TestJobsStopsOnUnfixableAnswer: a job submit the daemon rejects with
// a 4xx fails at once with the daemon's own message, instead of
// re-sending for the whole progress budget.
func TestJobsStopsOnUnfixableAnswer(t *testing.T) {
	addr := startServer(t)
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := realMain([]string{
		"-addr", addr, "-jobs", "-job-units", "300", "-quiet",
	}, &stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("took %v to give up on a 400, want under 5s", d)
	}
	if !strings.Contains(stderr.String(), "batch exceeds 256 units") {
		t.Errorf("stderr lacks the server's message:\n%s", stderr.String())
	}
}
