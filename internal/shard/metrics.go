// Fleet-level metrics for the front tier, rendered in the same
// hand-rolled Prometheus text format idemd uses. The front's view is
// complementary to the replicas': replicas report cache effectiveness
// and simulator work, the front reports where traffic went (per-backend
// request/latency/error counters), how the ring evolved (generation,
// rebalances) and how often routing had to fail over.
package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/jobs"
)

// backendStats is one backend's traffic ledger, guarded by Metrics.mu
// (the front is network-bound; a mutex is far from the contention
// point, and it keeps count/sum coherent for rate math).
type backendStats struct {
	requests   int64
	errors     int64
	sumSeconds float64
}

// Metrics is the front tier's registry.
type Metrics struct {
	mu       sync.Mutex
	backends map[string]*backendStats
	paths    map[string]map[int]int64 // path -> status code -> count

	ringGen    atomic.Int64
	rebalances atomic.Int64
	failovers  atomic.Int64
	noReplica  atomic.Int64
	rawRouted  atomic.Int64
	subBatches atomic.Int64
	subJobs    atomic.Int64
	subRetries atomic.Int64
	inflight   atomic.Int64

	start time.Time
}

// NewMetrics returns an empty registry at ring generation 0.
func NewMetrics() *Metrics {
	return &Metrics{
		backends: map[string]*backendStats{},
		paths:    map[string]map[int]int64{},
		start:    time.Now(),
	}
}

// ObserveBackend records one proxied request to a backend.
func (m *Metrics) ObserveBackend(id string, d time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bs := m.backends[id]
	if bs == nil {
		bs = &backendStats{}
		m.backends[id] = bs
	}
	bs.requests++
	bs.sumSeconds += d.Seconds()
	if failed {
		bs.errors++
	}
}

// ObservePath records one front-level response by path and status.
func (m *Metrics) ObservePath(path string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	codes := m.paths[path]
	if codes == nil {
		codes = map[int]int64{}
		m.paths[path] = codes
	}
	codes[code]++
}

// RingGeneration bumps the generation counter (one health transition =
// one new effective assignment) and returns the new value.
func (m *Metrics) RingGeneration() int64 { return m.ringGen.Add(1) }

// Rebalance counts one membership-affecting health transition.
func (m *Metrics) Rebalance() { m.rebalances.Add(1) }

// Failover counts one request rerouted off its ring owner.
func (m *Metrics) Failover() { m.failovers.Add(1) }

// FailoversNow reads the failover counter (tests assert on it).
func (m *Metrics) FailoversNow() int64 { return m.failovers.Load() }

// NoReplica counts one request that exhausted every backend.
func (m *Metrics) NoReplica() { m.noReplica.Add(1) }

// RawRouted counts one request routed by body hash because it did not
// parse as a known request shape (the owning replica produces the
// canonical error for it).
func (m *Metrics) RawRouted() { m.rawRouted.Add(1) }

// SubBatch counts one sub-batch fanned out to a backend.
func (m *Metrics) SubBatch() { m.subBatches.Add(1) }

// SubJob counts one sub-job submitted to a backend by a job merger.
func (m *Metrics) SubJob() { m.subJobs.Add(1) }

// SubJobRetry counts one sub-job resubmitted to another backend after
// a replica-side failure.
func (m *Metrics) SubJobRetry() { m.subRetries.Add(1) }

// SubJobRetriesNow reads the resubmission counter (tests assert on it).
func (m *Metrics) SubJobRetriesNow() int64 { return m.subRetries.Load() }

// InFlight tracks the front's in-flight gauge.
func (m *Metrics) InFlight() func() {
	m.inflight.Add(1)
	return func() { m.inflight.Add(-1) }
}

// VerifyTotals is the fleet-aggregated translation-validator ledger,
// summed from healthy backends' /metrics at render time (see
// Front.verifyTotals). Backends counts replicas successfully scraped so
// dashboards can tell "fleet verified nothing" from "scrape failed".
type VerifyTotals struct {
	Checked, Failed, RejectedArtifacts int64
	Backends                           int
}

// Render emits the Prometheus text exposition; healthy maps backend ID
// to current health so the gauge reflects the router's live view.
// Ordering is deterministic (sorted backends, paths, codes).
func (m *Metrics) Render(healthy map[string]bool, js jobs.Stats, vt VerifyTotals) string {
	var b strings.Builder

	m.mu.Lock()
	ids := make([]string, 0, len(m.backends))
	for id := range m.backends {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	fmt.Fprintf(&b, "# HELP idemfront_backend_requests_total Requests proxied, by backend.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_backend_requests_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "idemfront_backend_requests_total{backend=%q} %d\n", id, m.backends[id].requests)
	}
	fmt.Fprintf(&b, "# HELP idemfront_backend_errors_total Proxied requests that failed (transport error or 5xx), by backend.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_backend_errors_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "idemfront_backend_errors_total{backend=%q} %d\n", id, m.backends[id].errors)
	}
	fmt.Fprintf(&b, "# HELP idemfront_backend_latency_seconds_total Summed proxied-request latency, by backend.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_backend_latency_seconds_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "idemfront_backend_latency_seconds_total{backend=%q} %.9f\n", id, m.backends[id].sumSeconds)
	}

	paths := make([]string, 0, len(m.paths))
	for p := range m.paths {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fmt.Fprintf(&b, "# HELP idemfront_http_requests_total Responses served by the front, by path and status code.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_http_requests_total counter\n")
	for _, p := range paths {
		codes := make([]int, 0, len(m.paths[p]))
		for c := range m.paths[p] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "idemfront_http_requests_total{path=%q,code=\"%d\"} %d\n", p, c, m.paths[p][c])
		}
	}
	m.mu.Unlock()

	hids := make([]string, 0, len(healthy))
	for id := range healthy {
		hids = append(hids, id)
	}
	sort.Strings(hids)
	fmt.Fprintf(&b, "# HELP idemfront_backend_healthy Backend health as seen by the router (1 ready, 0 out).\n")
	fmt.Fprintf(&b, "# TYPE idemfront_backend_healthy gauge\n")
	for _, id := range hids {
		v := 0
		if healthy[id] {
			v = 1
		}
		fmt.Fprintf(&b, "idemfront_backend_healthy{backend=%q} %d\n", id, v)
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP idemfront_%s %s\n", name, help)
		fmt.Fprintf(&b, "# TYPE idemfront_%s gauge\n", name)
		fmt.Fprintf(&b, "idemfront_%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP idemfront_%s %s\n", name, help)
		fmt.Fprintf(&b, "# TYPE idemfront_%s counter\n", name)
		fmt.Fprintf(&b, "idemfront_%s %d\n", name, v)
	}
	gauge("ring_generation", "Monotonic generation of the effective (healthy) replica set.", m.ringGen.Load())
	counter("rebalance_total", "Health transitions that changed the effective replica set.", m.rebalances.Load())
	counter("failover_total", "Requests rerouted off their ring owner.", m.failovers.Load())
	counter("no_replica_total", "Requests that exhausted every backend.", m.noReplica.Load())
	counter("raw_routed_total", "Requests routed by body hash (unparseable shape; replica answers canonically).", m.rawRouted.Load())
	counter("sub_batches_total", "Sub-batches fanned out to backends by /v1/batch splitting.", m.subBatches.Load())
	counter("sub_jobs_total", "Sub-jobs submitted to backends by /v1/jobs mergers.", m.subJobs.Load())
	counter("sub_job_retries_total", "Sub-jobs resubmitted to another backend after a replica failure.", m.subRetries.Load())
	gauge("inflight_requests", "Requests currently being served by the front.", m.inflight.Load())
	gauge("jobs_active", "Front jobs currently merging sub-job results.", js.Active)
	gauge("jobs_tracked", "Front jobs in the table (running + terminal).", js.Tracked)
	counter("jobs_completed_total", "Front jobs that delivered every unit.", js.Completed)
	counter("jobs_canceled_total", "Front jobs canceled by DELETE.", js.Canceled)
	counter("jobs_failed_total", "Front jobs failed (a sub-batch exhausted every replica).", js.Failed)
	counter("jobs_reaped_total", "Terminal front jobs dropped by the TTL reaper.", js.Reaped)

	// The fleet's verification ledger keeps the idemd_ metric names so a
	// dashboard summing validator activity reads one series whether it
	// scrapes a replica or the front.
	raw := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	raw("idemd_verify_checked_total", "Fleet-summed validator checks (scraped from healthy backends).", vt.Checked)
	raw("idemd_verify_failed_total", "Fleet-summed validator runs that found violations.", vt.Failed)
	raw("idemd_verify_rejected_artifacts_total", "Fleet-summed disk artifacts pruned after failing verification.", vt.RejectedArtifacts)
	fmt.Fprintf(&b, "# HELP idemfront_verify_scraped_backends Backends whose /metrics contributed to the verify totals this scrape.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_verify_scraped_backends gauge\n")
	fmt.Fprintf(&b, "idemfront_verify_scraped_backends %d\n", vt.Backends)

	fmt.Fprintf(&b, "# HELP idemfront_uptime_seconds Seconds since process start.\n")
	fmt.Fprintf(&b, "# TYPE idemfront_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "idemfront_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	return b.String()
}
