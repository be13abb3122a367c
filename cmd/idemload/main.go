// Command idemload is a deterministic, seeded load generator for idemd.
// It fires a fixed mix of /v1/compile, /v1/simulate and /v1/batch
// requests at a running daemon, checks every response, and digests the
// response bodies in request order — so two runs with the same -seed
// against fresh daemons must produce the same digest, and -repeat N
// asserts that property in one process (the daemon's responses must be a
// pure function of the request, not of cache state or concurrency).
//
//	idemload -addr 127.0.0.1:7777 -concurrency 32 -requests 2000
//	idemload -addr $(cat /tmp/idemd.addr) -repeat 2 \
//	    -assert 'idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total >= 0.5'
//	idemload -addr ... -json summary.json
//
// Resilience and chaos: -retries re-sends failed requests (retry.go),
// and -chaos-seed interposes a seeded fault proxy between the generator
// and the daemon (chaos.go). Together they run the end-to-end campaign
// that docs/resilience.md describes: under injected transport faults the
// client must converge to the same digest a fault-free run produces.
//
//	idemload -addr ... -chaos-seed 7 -chaos-rates 10,6,6,6 -retries 8
//
// Async jobs: -jobs swaps the request mix for one deterministic batch
// submitted via POST /v1/jobs, consumed through cursor long-polls (or
// the NDJSON stream with -stream) and digested after reconstruction —
// the digest equals the one a direct /v1/batch POST produces, which
// -verify-batch asserts byte-for-byte. The campaign client survives the
// daemon being killed and restarted mid-job (submits retry, cursors
// resume), and an -assert on idemd_jobs_resumed_units_total proves the
// restarted daemon really reloaded journaled results instead of
// re-executing them — the kill -9 resume proof scripts/jobs_smoke.sh
// runs (docs/jobs.md).
//
//	idemload -addr ... -jobs -verify-batch -job-units 48
//	idemload -addr ... -jobs -stream -expect-digest <hex> \
//	    -assert 'idemd_buildcache_compiles_total <= 0' -assert 'idemd_jobs_resumed_units_total >= 1'
//
// Exit status is nonzero on any permanently failed request, any
// non-200 response, a digest mismatch, or an unmet -assert (evaluated
// on the daemons' own /metrics, so smoke-test scripts need no curl/jq;
// see assert.go for the expression syntax). A malformed -assert exits 2
// before any request is sent. SIGINT/SIGTERM flushes partial -json
// results and exits 130.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"idemproc/internal/server"
	"idemproc/internal/workloads"
)

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// exitInterrupted is the conventional 128+SIGINT code: the run was cut
// short but partial results were flushed.
const exitInterrupted = 130

func realMain(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("idemload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7777", "idemd (or idemfront) address (host:port)")
		scrape       = fs.String("scrape", "", "comma-separated /metrics scrape targets (host:port; default: -addr). When driving a front tier, list every replica: counters are summed so the cache assertions gate fleet-wide behavior")
		expectDigest = fs.String("expect-digest", "", "assert the pass digest equals this 16-hex-digit value (cross-fleet identity: run a 1-replica baseline, then require the fleet to reproduce its digest)")
		concurrency  = fs.Int("concurrency", 32, "concurrent in-flight requests")
		requests     = fs.Int("requests", 2000, "requests per pass")
		seed         = fs.Uint64("seed", 1, "request-mix seed (same seed => same requests => same digest)")
		repeat       = fs.Int("repeat", 1, "passes to run; all passes must produce the same digest")
		mix          = fs.String("mix", "45,40,15", "compile,simulate,batch weight percentages")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request client timeout")
		jsonOut      = fs.String("json", "", "write the run summary to this file")
		sweepAll     = fs.Bool("sweep-compiles", false, "before the seeded passes, POST /v1/compile once per built-in workload (paper-default options); every swept response must report verified=true, so run it against idemd -verify-mode full")
		quiet        = fs.Bool("quiet", false, "suppress the per-pass progress line")

		jobsMode    = fs.Bool("jobs", false, "run the async-job campaign instead of the request mix: submit one deterministic batch via POST /v1/jobs and consume results incrementally (docs/jobs.md)")
		streamMode  = fs.Bool("stream", false, "with -jobs, consume via GET /v1/jobs/{id}/stream (NDJSON) instead of cursor long-polls; broken streams reconnect at the cursor")
		jobUnits    = fs.Int("job-units", 24, "with -jobs, units in the submitted batch")
		jobSimSteps = fs.Int64("job-sim-steps", 0, "with -jobs, make every unit a simulation of this many steps (slow, kill-window-friendly units for resume smoke tests; 0 = normal palette mix)")
		jobIDFile   = fs.String("job-id-file", "", "with -jobs, write the submitted job id to this file (smoke scripts poll/kill against it)")
		verifyBatch = fs.Bool("verify-batch", false, "with -jobs, POST the same units to /v1/batch and assert the reconstructed job results are byte-identical")

		retries    = fs.Int("retries", 0, "re-execute failed requests up to this many times (safe: responses are idempotent)")
		chaosSeed  = fs.Uint64("chaos-seed", 0, "interpose a seeded fault-injection proxy (0 disables)")
		chaosRates = fs.String("chaos-rates", "10,6,6,6", "latency,error500,reset,truncate fault percentages for -chaos-seed")
	)
	var gates assertions
	fs.Var(&gates, "assert", "repeatable gate `'EXPR OP NUMBER'` on the scraped /metrics: EXPR is SUM or SUM / SUM of unlabelled series joined by +, OP is >=, <= or ==; an each: prefix checks every scrape target alone instead of the fleet sum")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *concurrency < 1 || *requests < 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "idemload: -concurrency, -requests and -repeat must be >= 1")
		return 2
	}
	if *jobsMode && *jobUnits < 1 {
		fmt.Fprintln(stderr, "idemload: -job-units must be >= 1")
		return 2
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(stderr, "idemload: %v\n", err)
		return 2
	}
	// Scrape targets: the traffic address by default; against a front
	// tier, the replicas behind it (the front has no compile cache).
	var scrapeTargets []string
	for _, tgt := range strings.Split(*scrape, ",") {
		if tgt = strings.TrimSpace(tgt); tgt != "" {
			scrapeTargets = append(scrapeTargets, tgt)
		}
	}
	if len(scrapeTargets) == 0 {
		scrapeTargets = []string{*addr}
	}
	var expectDigestVal uint64
	if *expectDigest != "" {
		expectDigestVal, err = strconv.ParseUint(strings.TrimSpace(*expectDigest), 16, 64)
		if err != nil {
			fmt.Fprintf(stderr, "idemload: -expect-digest %q is not a 64-bit hex digest\n", *expectDigest)
			return 2
		}
	}

	// Signal handling: first signal cancels the run context; workers
	// stop picking up requests and the partial pass is flushed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var interrupted atomic.Bool
	sigDone := make(chan struct{})
	defer close(sigDone)
	go func() {
		select {
		case <-sigs:
			interrupted.Store(true)
			cancel()
		case <-sigDone:
		}
	}()

	// The scrape always goes straight to the daemons; only /v1 traffic is
	// routed through the chaos proxy, so fault accounting and cache
	// assertions see the servers' ground truth.
	trafficBase := "http://" + *addr
	var chaos *injector
	if *chaosSeed != 0 {
		rates, err := parseChaosRates(*chaosRates)
		if err != nil {
			fmt.Fprintf(stderr, "idemload: %v\n", err)
			return 2
		}
		chaos = &injector{seed: *chaosSeed, rates: rates}
		srv, proxyAddr, err := listenChaos(*addr, chaos)
		if err != nil {
			fmt.Fprintf(stderr, "idemload: %v\n", err)
			return 1
		}
		defer srv.Close()
		trafficBase = "http://" + proxyAddr
		if !*quiet {
			fmt.Fprintf(stdout, "chaos: proxy %s -> %s (seed %d, rates %s)\n", proxyAddr, *addr, *chaosSeed, *chaosRates)
		}
	}

	client := &http.Client{Timeout: *timeout}
	var rt *retrier
	if *retries > 0 {
		rt = newRetrier(*retries, *seed)
	}

	// One scrape serves both the -assert gates and the -json summary, so
	// the summary shows exactly the numbers that were gated.
	var scraped *fleetScrape
	scrapeOnce := func() fleetScrape {
		if scraped == nil {
			v := scrapeFleet(client, scrapeTargets)
			scraped = &v
		}
		return *scraped
	}

	// flush writes whatever has been measured so far; it runs on the
	// happy path, on mid-run failure and on interrupt, so a long
	// campaign never loses its measurements to a late error.
	start := time.Now()
	var digests []uint64
	var last passResult
	var jobsRes *jobsCampaignResult
	completedPasses := 0
	flush := func(failure string) {
		if *jsonOut == "" {
			return
		}
		benchName := "serve"
		if len(scrapeTargets) > 1 {
			benchName = "shard" // fleet campaign: multi-replica scrape
		}
		summary := map[string]any{
			"bench":              benchName,
			"requests":           *requests,
			"concurrency":        *concurrency,
			"seed":               *seed,
			"repeats":            *repeat,
			"completed_passes":   completedPasses,
			"completed_requests": last.completed,
			"interrupted":        interrupted.Load(),
			"elapsed_sec":        time.Since(start).Seconds(),
			"req_per_sec":        last.reqPerSec,
			"p50_ms":             last.p50.Seconds() * 1e3,
			"p90_ms":             last.p90.Seconds() * 1e3,
			"p99_ms":             last.p99.Seconds() * 1e3,
			"errors":             last.errors,
		}
		if failure != "" {
			summary["failure"] = failure
		}
		if len(digests) > 0 {
			summary["digest"] = fmt.Sprintf("%016x", digests[0])
		}
		// Scrape failures are explicit: scrape_errors is always present,
		// and the cache/disk sections appear only when every target
		// answered — a partial sum would quietly gate on the wrong number.
		view := scrapeOnce()
		summary["scrape_errors"] = view.errs
		if view.errs == 0 {
			c := view.sum
			summary["cache"] = map[string]any{
				"hits": count(c, "buildcache_hits_total"), "misses": count(c, "buildcache_misses_total"),
				"hit_ratio": ratio(c, "buildcache_hits_total", "buildcache_misses_total"),
				"evictions": count(c, "buildcache_evictions_total"),
				"compiles":  count(c, "buildcache_compiles_total"),
			}
			summary["disk"] = map[string]any{
				"hits": count(c, "buildcache_disk_hits_total"), "misses": count(c, "buildcache_disk_misses_total"),
				"writes": count(c, "buildcache_disk_writes_total"), "corrupt": count(c, "buildcache_disk_corrupt_total"),
				"hit_ratio": ratio(c, "buildcache_disk_hits_total", "buildcache_disk_misses_total"),
			}
			summary["server"] = map[string]any{
				"sim_preempted":      count(c, "sim_preempted_total"),
				"jobs_resumed":       count(c, "jobs_resumed_total"),
				"jobs_resumed_units": count(c, "jobs_resumed_units_total"),
			}
			summary["verify"] = map[string]any{
				"checked":            count(c, "verify_checked_total"),
				"failed":             count(c, "verify_failed_total"),
				"rejected_artifacts": count(c, "verify_rejected_artifacts_total"),
			}
		}
		if jobsRes != nil {
			summary["jobs"] = map[string]any{
				"id":             jobsRes.jobID,
				"units":          jobsRes.units,
				"stream":         *streamMode,
				"digest":         fmt.Sprintf("%016x", jobsRes.digest),
				"submit_retries": jobsRes.submitRetries,
				"poll_retries":   jobsRes.pollRetries,
				"stream_resumes": jobsRes.streamResumes,
				"verified_batch": jobsRes.verifiedBatch,
			}
		}
		reps := make([]map[string]any, 0, len(view.per))
		for _, r := range view.per {
			m := map[string]any{"target": r.target}
			if r.err != nil {
				m["error"] = r.err.Error()
			} else {
				m["hits"] = count(r.m, "buildcache_hits_total")
				m["misses"] = count(r.m, "buildcache_misses_total")
				m["hit_ratio"] = ratio(r.m, "buildcache_hits_total", "buildcache_misses_total")
				m["compiles"] = count(r.m, "buildcache_compiles_total")
			}
			reps = append(reps, m)
		}
		summary["replicas"] = reps
		if rt != nil {
			summary["resilience"] = rt.counts()
		}
		if chaos != nil {
			summary["chaos"] = map[string]any{
				"seed": *chaosSeed, "rates": *chaosRates, "injected": chaos.counts(),
			}
		}
		b, _ := json.MarshalIndent(summary, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "idemload: %v\n", err)
			return
		}
		if !*quiet {
			fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
		}
	}

	if *sweepAll {
		// Workload sweep: one compile per built-in workload, in catalog
		// order, so a full-verification daemon checks every program the
		// service can build — not just the seeded palette below.
		n, err := sweepCompiles(ctx, client, trafficBase)
		if err != nil {
			fmt.Fprintf(stderr, "idemload: %v\n", err)
			flush("workload sweep failed")
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "sweep: compiled %d workloads\n", n)
		}
	}

	if *jobsMode {
		// The jobs campaign: one deterministic batch, submitted and
		// consumed through the async API. -repeat reruns the identical
		// submission, so the digest-stability check below also proves the
		// job path is a pure function of the request body.
		body := genJobBatch(*seed, *jobUnits, *jobSimSteps)
		for pass := 0; pass < *repeat; pass++ {
			t0 := time.Now()
			res, err := runJobsCampaign(ctx, client, trafficBase, body, *streamMode, *jobIDFile, *quiet, stdout)
			jobsRes = &res
			last = passResult{completed: len(res.body)} // bytes, for the partial-progress field
			if res.units > 0 {
				last.completed = res.units
			}
			if interrupted.Load() {
				fmt.Fprintf(stderr, "idemload: interrupted during job pass %d\n", pass)
				flush("interrupted")
				return exitInterrupted
			}
			if err != nil {
				fmt.Fprintf(stderr, "idemload: job pass %d: %v\n", pass, err)
				flush("job campaign failed")
				return 1
			}
			if *verifyBatch {
				if err := verifyAgainstBatch(ctx, client, trafficBase, body, jobsRes); err != nil {
					fmt.Fprintf(stderr, "idemload: job pass %d: %v\n", pass, err)
					flush("job/batch byte identity failed")
					return 1
				}
			}
			if !*quiet {
				fmt.Fprintf(stdout, "job pass %d: %d units in %s, digest %016x (submit retries %d, poll retries %d, stream resumes %d)\n",
					pass, res.units, time.Since(t0).Round(time.Millisecond), res.digest,
					res.submitRetries, res.pollRetries, res.streamResumes)
			}
			digests = append(digests, res.digest)
			completedPasses++
		}
	} else {
		send := makeSender(client, trafficBase, rt)
		for pass := 0; pass < *repeat; pass++ {
			res := runPass(ctx, send, *seed, *requests, *concurrency, weights)
			last = res
			if interrupted.Load() {
				fmt.Fprintf(stderr, "idemload: interrupted during pass %d after %d/%d requests\n", pass, res.completed, *requests)
				flush("interrupted")
				return exitInterrupted
			}
			if res.errors > 0 {
				for _, s := range res.errSamples {
					fmt.Fprintf(stderr, "idemload: %s\n", s)
				}
				fmt.Fprintf(stderr, "idemload: pass %d: %d/%d requests failed\n", pass, res.errors, *requests)
				flush("requests failed")
				return 1
			}
			if !*quiet {
				fmt.Fprintf(stdout, "pass %d: %d requests in %s (%.1f req/s), p50 %.2fms p90 %.2fms p99 %.2fms, digest %016x\n",
					pass, *requests, res.elapsed.Round(time.Millisecond), res.reqPerSec,
					res.p50.Seconds()*1e3, res.p90.Seconds()*1e3, res.p99.Seconds()*1e3, res.digest)
			}
			digests = append(digests, res.digest)
			completedPasses++
		}
	}

	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			fmt.Fprintf(stderr, "idemload: digest mismatch: pass 0 %016x != pass %d %016x (responses are not deterministic)\n",
				digests[0], i, digests[i])
			flush("digest mismatch between passes")
			return 1
		}
	}
	if *expectDigest != "" && len(digests) > 0 && digests[0] != expectDigestVal {
		fmt.Fprintf(stderr, "idemload: digest %016x does not match expected %016x (fleet diverges from the baseline run)\n",
			digests[0], expectDigestVal)
		flush("digest mismatch against -expect-digest")
		return 1
	}
	if rt != nil && !*quiet {
		fmt.Fprintf(stdout, "resilience: %d attempts, %d retries\n", rt.attempts.Load(), rt.retries.Load())
	}
	if chaos != nil && !*quiet {
		c := chaos.counts()
		fmt.Fprintf(stdout, "chaos: injected %d latencies, %d errors, %d resets, %d truncations over %d requests\n",
			c.Latencies, c.Errors500, c.Resets, c.Truncates, c.Requests)
	}

	// The daemons' own view of the compile cache. Against a fleet the
	// counters sum across replicas, so the gates hold fleet-wide.
	view := scrapeOnce()
	if view.errs > 0 {
		for _, r := range view.per {
			if r.err != nil {
				fmt.Fprintf(stderr, "idemload: metrics scrape %s: %v\n", r.target, r.err)
			}
		}
		flush("metrics scrape failed")
		return 1
	}
	if !*quiet {
		c := view.sum
		fmt.Fprintf(stdout, "cache: %d hits / %d misses (%.1f%% hit ratio), %d evictions, %d compiles\n",
			count(c, "buildcache_hits_total"), count(c, "buildcache_misses_total"),
			100*ratio(c, "buildcache_hits_total", "buildcache_misses_total"),
			count(c, "buildcache_evictions_total"), count(c, "buildcache_compiles_total"))
		if len(view.per) > 1 {
			for _, r := range view.per {
				fmt.Fprintf(stdout, "  replica %s: %d hits / %d misses (%.1f%% hit ratio), %d compiles\n",
					r.target, count(r.m, "buildcache_hits_total"), count(r.m, "buildcache_misses_total"),
					100*ratio(r.m, "buildcache_hits_total", "buildcache_misses_total"),
					count(r.m, "buildcache_compiles_total"))
			}
		}
		if dh, dm, dw := count(c, "buildcache_disk_hits_total"), count(c, "buildcache_disk_misses_total"), count(c, "buildcache_disk_writes_total"); dh+dm+dw > 0 {
			fmt.Fprintf(stdout, "disk: %d hits / %d misses (%.1f%% hit ratio), %d writes, %d corrupt\n",
				dh, dm, 100*ratio(c, "buildcache_disk_hits_total", "buildcache_disk_misses_total"),
				dw, count(c, "buildcache_disk_corrupt_total"))
		}
		if jr := count(c, "jobs_resumed_total"); jr > 0 {
			fmt.Fprintf(stdout, "jobs: %d resumed, %d unit results reloaded from journals\n",
				jr, count(c, "jobs_resumed_units_total"))
		}
		if vc, vr := count(c, "verify_checked_total"), count(c, "verify_rejected_artifacts_total"); vc+vr > 0 {
			fmt.Fprintf(stdout, "verify: %d checked, %d failed, %d artifacts rejected\n",
				vc, count(c, "verify_failed_total"), vr)
		}
	}
	for _, a := range gates {
		if err := a.check(view); err != nil {
			fmt.Fprintf(stderr, "idemload: %v\n", err)
			flush("assertion failed: " + a.src)
			return 1
		}
	}

	flush("")
	return 0
}

// parseMix parses "compile,simulate,batch" percentage weights.
func parseMix(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	var w [3]int
	if len(parts) != 3 {
		return w, fmt.Errorf("-mix wants three comma-separated weights, got %q", s)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("-mix weight %q must be a non-negative integer", p)
		}
		w[i] = n
		total += n
	}
	if total <= 0 {
		return w, fmt.Errorf("-mix weights must not all be zero")
	}
	return w, nil
}

// parseChaosRates parses "latency,error500,reset,truncate" percentages.
func parseChaosRates(s string) (faultRates, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return faultRates{}, fmt.Errorf("-chaos-rates wants four comma-separated percentages, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		n, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || n < 0 || n > 100 {
			return faultRates{}, fmt.Errorf("-chaos-rates value %q must be a percentage in [0, 100]", p)
		}
		v[i] = n / 100
	}
	return faultRates{latency: v[0], error500: v[1], reset: v[2], truncate: v[3]}, nil
}

// ---------------------------------------------------------------------
// One pass: fire every request, digest bodies in index order.

type passResult struct {
	digest    uint64
	elapsed   time.Duration
	reqPerSec float64
	p50       time.Duration
	p90       time.Duration
	p99       time.Duration
	// completed counts requests that got a checked 200 before the pass
	// ended; on an interrupted pass this is the partial progress.
	completed  int
	errors     int64
	errSamples []string
}

// sender executes one request (possibly with retries behind it).
// key is the request index, feeding the deterministic jitter stream.
type sender func(ctx context.Context, key uint64, path string, body []byte) (int, []byte, error)

// sweepCompiles posts one /v1/compile per built-in workload with the
// paper-default options, sequentially in catalog order, and demands each
// response carry verified=true — the end-to-end proof that a
// -verify-mode full daemon really validated every program it can build
// (scripts/verify_smoke.sh).
func sweepCompiles(ctx context.Context, client *http.Client, base string) (int, error) {
	n := 0
	for _, w := range workloads.All() {
		body, err := json.Marshal(&server.CompileRequest{Workload: w.Name})
		if err != nil {
			panic(err) // request structs always marshal
		}
		status, resp, err := post(ctx, client, base+"/v1/compile", body)
		if err != nil {
			return n, fmt.Errorf("sweep %s: %v", w.Name, err)
		}
		if status != http.StatusOK {
			return n, fmt.Errorf("sweep %s: status %d: %s", w.Name, status, firstLine(resp))
		}
		var rep server.CompileReport
		if err := json.Unmarshal(resp, &rep); err != nil {
			return n, fmt.Errorf("sweep %s: decoding report: %v", w.Name, err)
		}
		if !rep.Verified {
			return n, fmt.Errorf("sweep %s: response reports verified=false (is idemd running -verify-mode full?)", w.Name)
		}
		n++
	}
	return n, nil
}

// firstLine trims an error body to its first line for diagnostics.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// makeSender builds the pass's transport: a bare ctx-aware POST, or the
// same POST behind the retrier when -retries is set.
func makeSender(client *http.Client, base string, rt *retrier) sender {
	if rt == nil {
		return func(ctx context.Context, _ uint64, path string, body []byte) (int, []byte, error) {
			return post(ctx, client, base+path, body)
		}
	}
	return func(ctx context.Context, key uint64, path string, body []byte) (int, []byte, error) {
		return rt.do(ctx, key, func(ctx context.Context) (int, []byte, error) {
			return post(ctx, client, base+path, body)
		})
	}
}

func runPass(ctx context.Context, send sender, seed uint64, n, concurrency int, weights [3]int) passResult {
	hashes := make([]uint64, n)
	lats := make([]time.Duration, n)
	done := make([]bool, n)
	var errCount atomic.Int64
	var mu sync.Mutex
	var samples []string

	if concurrency > n {
		concurrency = n
	}
	var next atomic.Int64
	next.Store(-1)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < concurrency; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				path, body := genRequest(seed, i, weights)
				t0 := time.Now()
				status, resp, err := send(ctx, uint64(i), path, body)
				lats[i] = time.Since(t0)
				if err != nil || status != http.StatusOK {
					if ctx.Err() != nil && (err == nil || errors.Is(err, context.Canceled)) {
						// Interrupted mid-request: not a server failure.
						return
					}
					errCount.Add(1)
					mu.Lock()
					if len(samples) < 5 {
						msg := fmt.Sprintf("request %d %s: status %d err %v", i, path, status, err)
						if len(resp) > 0 {
							msg += " body " + strings.TrimSpace(string(resp[:min(len(resp), 200)]))
						}
						samples = append(samples, msg)
					}
					mu.Unlock()
					continue
				}
				h := fnv.New64a()
				h.Write(resp)
				hashes[i] = h.Sum64()
				done[i] = true
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Aggregate the per-request hashes in index order so the digest is
	// independent of completion order.
	agg := fnv.New64a()
	var buf [8]byte
	completed := 0
	var sorted []time.Duration
	for i, hv := range hashes {
		for b := 0; b < 8; b++ {
			buf[b] = byte(hv >> (8 * b))
		}
		agg.Write(buf[:])
		if done[i] {
			completed++
			sorted = append(sorted, lats[i])
		}
	}

	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	pct := func(p float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	rate := 0.0
	if elapsed > 0 {
		rate = float64(completed) / elapsed.Seconds()
	}
	return passResult{
		digest:     agg.Sum64(),
		elapsed:    elapsed,
		reqPerSec:  rate,
		p50:        pct(0.50),
		p90:        pct(0.90),
		p99:        pct(0.99),
		completed:  completed,
		errors:     errCount.Load(),
		errSamples: samples,
	}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// ---------------------------------------------------------------------
// Deterministic request generation. genRequest is a pure function of
// (seed, index, weights): no global state, so passes and processes with
// the same seed produce byte-identical request streams.

// mix is one splitmix64 step: tiny, seedable, and stable across Go
// versions (math/rand's stream is not part of its compatibility
// promise). It drives the request mix, the retry jitter and the fault
// rolls, so one seed namespace covers a campaign.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is the splitmix64 generator over mix.
type rng struct{ s uint64 }

func newRNG(seed, index uint64) *rng {
	r := &rng{s: seed ^ (index+1)*0x9e3779b97f4a7c15}
	r.next() // decorrelate nearby indices
	return r
}

func (r *rng) next() uint64 {
	v := mix(r.s)
	r.s += 0x9e3779b97f4a7c15
	return v
}

// n returns a value in [0, bound).
func (r *rng) n(bound int) int { return int(r.next() % uint64(bound)) }

// The palettes are small on purpose: a bounded request vocabulary is what
// makes the compile cache's hit ratio high and measurable.
var compileWorkloads = []string{
	"bzip2", "mcf", "hmmer", "libquantum", "milc", "lbm",
	"blackscholes", "streamcluster", "swaptions", "canneal",
}

var simWorkloads = []string{
	"bzip2", "mcf", "libquantum", "milc", "blackscholes", "swaptions",
}

var schemes = []string{"none", "dmr", "tmr", "cl", "idem"}

func boolPtr(b bool) *bool { return &b }

func genCompile(r *rng) *server.CompileRequest {
	req := &server.CompileRequest{Workload: compileWorkloads[r.n(len(compileWorkloads))]}
	switch r.n(4) {
	case 0: // paper-default idempotent construction
	case 1: // conventional compilation
		req.Options = &server.OptionsSpec{Idempotent: boolPtr(false)}
	case 2: // idempotent without redundancy elimination
		req.Options = &server.OptionsSpec{Core: &server.CoreOptionsSpec{RedElim: boolPtr(false)}}
	case 3: // bounded region size
		sizes := []int{8, 16, 32, 64}
		req.Options = &server.OptionsSpec{Core: &server.CoreOptionsSpec{MaxRegionSize: sizes[r.n(len(sizes))]}}
	}
	return req
}

func genSimulate(r *rng) *server.SimulateRequest {
	req := &server.SimulateRequest{
		Workload: simWorkloads[r.n(len(simWorkloads))],
		Scheme:   schemes[r.n(len(schemes))],
	}
	if req.Scheme == "idem" {
		req.TrackPaths = true
	}
	// Half the simulations arm a register-bit-flip fault; recovery-capable
	// schemes mask it, detection-only ones report it in the digest.
	if r.n(2) == 0 {
		req.Injections = []server.InjectionSpec{{
			Model: "reg",
			Step:  int64(100 + r.n(20000)),
			Mask:  1 << uint(r.n(32)),
		}}
	}
	return req
}

func genRequest(seed uint64, index int, weights [3]int) (string, []byte) {
	r := newRNG(seed, uint64(index))
	total := weights[0] + weights[1] + weights[2]
	roll := r.n(total)
	var (
		path string
		req  any
	)
	switch {
	case roll < weights[0]:
		path, req = "/v1/compile", genCompile(r)
	case roll < weights[0]+weights[1]:
		path, req = "/v1/simulate", genSimulate(r)
	default:
		units := make([]server.BatchUnit, 2+r.n(3))
		for i := range units {
			if r.n(2) == 0 {
				units[i].Compile = genCompile(r)
			} else {
				units[i].Simulate = genSimulate(r)
			}
		}
		path, req = "/v1/batch", &server.BatchRequest{Units: units}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return path, b
}
