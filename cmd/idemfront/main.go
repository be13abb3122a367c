// Command idemfront is the sharded front tier for an idemd replica
// fleet. It routes /v1/compile and /v1/simulate by the same content key
// the replicas' compile caches use — so each replica's bounded cache
// holds a disjoint slice of the working set — and splits /v1/batch into
// per-replica sub-batches, fanned out concurrently and reassembled in
// index order. Async jobs (/v1/jobs) split the same way: each owner
// runs its slice as a sub-job, and the front merges the per-replica
// streams behind one handle, in strict index order. Responses are
// byte-identical to a single idemd process; a dead or draining replica
// costs throughput (its keys rehash to the deterministic next owner,
// and unfinished sub-jobs resubmit there), never correctness.
//
//	idemfront -backends 127.0.0.1:7777,127.0.0.1:7778,127.0.0.1:7779
//	idemfront -addr 127.0.0.1:0 -addr-file /tmp/idemfront.addr -backends ...
//
// Endpoints: POST /v1/compile, /v1/simulate, /v1/batch, /v1/jobs; GET
// /v1/jobs/{id} (long-poll), /v1/jobs/{id}/stream (NDJSON), DELETE
// /v1/jobs/{id}; GET /healthz, /readyz (503 while draining or with zero
// healthy backends), /metrics (fleet-level: per-backend traffic, ring
// generation, rebalances, failovers). The /v1 routes run idemd's own
// method filter, limits and job readers (internal/server). See
// docs/sharding.md for the ring algorithm and the determinism contract,
// docs/service.md for the request schema.
// SIGINT/SIGTERM drain gracefully; a second signal forces exit 3, the
// same contract idemd honors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"idemproc/internal/server"
	"idemproc/internal/shard"
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
	fs := flag.NewFlagSet("idemfront", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", "127.0.0.1:7700", "listen address (host:port; port 0 picks a free port)")
		addrFile       = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts with -addr :0)")
		backends       = fs.String("backends", "", "comma-separated idemd replica addresses (host:port); required")
		healthInterval = fs.Duration("health-interval", 250*time.Millisecond, "how often each backend's /readyz is probed")
		reqTimeout     = fs.Duration("request-timeout", 60*time.Second, "per-request deadline at the front, spanning all failover attempts (negative disables)")
		maxJobs        = fs.Int("max-jobs", 64, "bound on the front-side async job table (/v1/jobs); excess submissions are shed with 429")
		jobTTL         = fs.Duration("job-ttl", 10*time.Minute, "how long a finished front job stays queryable before it is reaped")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before abandoning them")
		pprofAddr      = fs.String("pprof-addr", "", "serve net/http/pprof on this side listener (host:port; port 0 picks a free port; empty = off)")
		quiet          = fs.Bool("quiet", false, "suppress lifecycle log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "idemfront: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	var reps []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			reps = append(reps, b)
		}
	}
	if len(reps) == 0 {
		fmt.Fprintln(stderr, "idemfront: -backends is required (comma-separated host:port list)")
		return 2
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if *quiet {
		logf = func(string, ...any) {}
	}
	front, err := shard.New(shard.Config{
		Backends:       reps,
		HealthInterval: *healthInterval,
		RequestTimeout: *reqTimeout,
		MaxJobs:        *maxJobs,
		JobTTL:         *jobTTL,
		Logf:           logf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "idemfront: %v\n", err)
		return 1
	}

	return server.RunDaemon("idemfront", front, *addr, *addrFile, *pprofAddr, *drainTimeout, stderr, sigs)
}
