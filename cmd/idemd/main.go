// Command idemd serves the idempotence-analysis pipeline over HTTP/JSON:
// compile a workload (or ad-hoc source) to an idempotent-region report,
// simulate it under a recovery scheme with fault injection, or fan a batch
// of such units onto the experiment engine's worker pool. One daemon holds
// one byte-bounded compile cache, so repeated requests for the same
// (workload, options) pair coalesce onto a single build.
//
//	idemd -addr 127.0.0.1:7777
//	idemd -addr 127.0.0.1:0 -addr-file /tmp/idemd.addr   # scripts read the port
//	idemd -cache-bytes 1048576 -max-inflight 32
//	idemd -cache-dir /var/lib/idemd/artifacts            # warm restarts (docs/persistence.md)
//
// Endpoints: POST /v1/compile, /v1/simulate, /v1/batch, /v1/jobs; GET
// /v1/jobs/{id} (long-poll), /v1/jobs/{id}/stream (NDJSON), DELETE
// /v1/jobs/{id}; GET /healthz, /readyz, /metrics. See docs/service.md
// for the request schema, the metrics catalog and capacity-tuning
// guidance, docs/jobs.md for the async job API and its resume
// guarantees (with -cache-dir, a killed daemon resumes interrupted
// jobs on restart without re-executing completed units).
// SIGINT/SIGTERM drain
// gracefully: /readyz flips to 503, in-flight requests finish (up to
// -drain-timeout), then the process exits 0. A second signal during the
// drain force-closes every connection and exits 3 immediately, so a
// stuck drain can always be cut short from the outside.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/server"
)

func main() {
	// Buffered for two deliveries: the graceful drain and the hard exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stderr, sigs))
}

// realMain is main with injectable args, log stream and signal channel
// so tests can assert on exit codes and drain behavior.
func realMain(args []string, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("idemd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7777", "listen address (host:port; port 0 picks a free port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts with -addr :0)")
		workers      = fs.Int("workers", 0, "experiment-engine worker pool width for /v1/batch (0 = GOMAXPROCS)")
		maxInflight  = fs.Int("max-inflight", 64, "concurrent request cap on the /v1/* endpoints; excess requests are shed with 429")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request deadline on /v1/* endpoints (negative disables)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "compile-cache byte bound; LRU entries are evicted past it (0 = unbounded)")
		cacheDir     = fs.String("cache-dir", "", "persistent artifact store directory: compiles are written behind as verified artifacts and reloaded across restarts (empty = memory-only)")
		verifyMode   = fs.String("verify-mode", "off", "translation-validator mode: off, or full (every fresh compile and disk artifact; see docs/verify.md)")
		maxJobs      = fs.Int("max-jobs", 64, "bound on the async job table (/v1/jobs); excess submissions are shed with 429")
		jobTTL       = fs.Duration("job-ttl", 10*time.Minute, "how long a finished job stays queryable before it is reaped")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before abandoning them")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof on this side listener (host:port; port 0 picks a free port; empty = off)")
		quiet        = fs.Bool("quiet", false, "silence the service core's lifecycle log lines (listen, artifact store, job recovery, drain)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "idemd: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	vm, err := buildcache.ParseVerifyMode(*verifyMode)
	if err != nil {
		fmt.Fprintf(stderr, "idemd: %v\n", err)
		return 2
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if *cacheDir != "" {
		// Fail fast on an unusable artifact directory: a daemon told to
		// persist should not silently run memory-only. Runtime disk errors
		// after this point degrade gracefully (see internal/buildcache).
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "idemd: cache-dir: %v\n", err)
			return 1
		}
	}
	cfg := server.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		CacheMaxBytes:  *cacheBytes,
		CacheDir:       *cacheDir,
		VerifyMode:     vm,
		MaxJobs:        *maxJobs,
		JobTTL:         *jobTTL,
		Logf:           logf,
	}
	if *quiet {
		cfg.Logf = func(string, ...any) {}
	}
	srv := server.New(cfg)
	if d := srv.Cache().Disk(); d != nil {
		// Warm-start scan: validate (and prune) what the store offers
		// before taking traffic, so corruption surfaces at boot rather
		// than on first request.
		scan := d.Scan()
		cfg.Logf("idemd: artifact store %s: %d artifacts, %d bytes, %d corrupt pruned",
			d.Dir(), scan.Entries, scan.Bytes, scan.Corrupt)
	}
	// Job recovery runs after the artifact scan on purpose: resumed units
	// then hit warm disk artifacts, so finishing an interrupted job costs
	// zero recompiles on top of zero re-executed units.
	srv.RecoverJobs()

	return server.RunDaemon("idemd", srv, *addr, *addrFile, *pprofAddr, *drainTimeout, stderr, sigs)
}
