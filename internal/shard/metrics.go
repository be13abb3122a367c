// Fleet-level metrics for the front tier, in the text format
// internal/metrics owns for idemd too. The front's view is
// complementary to the replicas': replicas report cache effectiveness
// and simulator work, the front reports where traffic went (per-backend
// request/latency/error counters), how the ring evolved (generation,
// rebalances) and how often routing had to fail over.
package shard

import (
	"strconv"
	"sync/atomic"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// Metrics holds the front tier's series. Routing code bumps the
// exported counters directly.
type Metrics struct {
	backendRequests, backendErrors, backendSeconds *metrics.Vec // by backend
	requests                                       *metrics.Vec // by path and status code

	// RingGen is the generation of the effective (healthy) replica set;
	// Rebalances counts the health transitions that changed it.
	RingGen, Rebalances atomic.Int64
	// Failovers counts requests rerouted off their ring owner, NoReplica
	// requests that exhausted every backend.
	Failovers, NoReplica atomic.Int64
	// SubBatches counts sub-batches fanned out to backends, SubJobs
	// sub-jobs submitted by job mergers, and SubJobRetries sub-jobs
	// resubmitted to another backend after a replica-side failure.
	SubBatches, SubJobs, SubJobRetries atomic.Int64
	// InFlight is the front's in-flight request gauge.
	InFlight atomic.Int64

	start time.Time
}

// NewMetrics returns an empty set of series at ring generation 0.
func NewMetrics() *Metrics {
	return &Metrics{
		backendRequests: metrics.NewVec("backend"),
		backendErrors:   metrics.NewVec("backend"),
		backendSeconds:  metrics.NewVec("backend"),
		requests:        metrics.NewVec("path", "code"),
		start:           time.Now(),
	}
}

// ObserveBackend records one proxied request to a backend.
func (m *Metrics) ObserveBackend(id string, d time.Duration, failed bool) {
	m.backendRequests.Add(1, id)
	errs := 0.0
	if failed {
		errs = 1
	}
	m.backendErrors.Add(errs, id)
	m.backendSeconds.Add(d.Seconds(), id)
}

// Observe records one front-level response by path and status, for
// server.Instrument. The front keeps no latency histogram (the replicas
// time the work), so d goes unused.
func (m *Metrics) Observe(path string, code int, _ time.Duration) {
	m.requests.Add(1, path, strconv.Itoa(code))
}

// Render emits the Prometheus text exposition; healthy maps backend ID
// to current health so the gauge reflects the router's live view.
func (m *Metrics) Render(healthy map[string]bool, js jobs.Stats) string {
	health := metrics.NewVec("backend")
	for id, ok := range healthy {
		up := 0.0
		if ok {
			up = 1
		}
		health.Add(up, id)
	}
	var w metrics.Writer
	w.CounterVec("idemfront_backend_requests_total", "Requests proxied, by backend.", m.backendRequests)
	w.CounterVec("idemfront_backend_errors_total", "Proxied requests that failed (transport error or 5xx), by backend.", m.backendErrors)
	w.CounterVec("idemfront_backend_latency_seconds_total", "Summed proxied-request latency, by backend.", m.backendSeconds)
	w.CounterVec("idemfront_http_requests_total", "Responses served by the front, by path and status code.", m.requests)
	w.GaugeVec("idemfront_backend_healthy", "Backend health as seen by the router (1 ready, 0 out).", health)

	w.Gauge("idemfront_ring_generation", "Monotonic generation of the effective (healthy) replica set.", float64(m.RingGen.Load()))
	w.Counter("idemfront_rebalance_total", "Health transitions that changed the effective replica set.", float64(m.Rebalances.Load()))
	w.Counter("idemfront_failover_total", "Requests rerouted off their ring owner.", float64(m.Failovers.Load()))
	w.Counter("idemfront_no_replica_total", "Requests that exhausted every backend.", float64(m.NoReplica.Load()))
	w.Counter("idemfront_sub_batches_total", "Sub-batches fanned out to backends by /v1/batch splitting.", float64(m.SubBatches.Load()))
	w.Counter("idemfront_sub_jobs_total", "Sub-jobs submitted to backends by /v1/jobs mergers.", float64(m.SubJobs.Load()))
	w.Counter("idemfront_sub_job_retries_total", "Sub-jobs resubmitted to another backend after a replica failure.", float64(m.SubJobRetries.Load()))
	w.Gauge("idemfront_inflight_requests", "Requests currently being served by the front.", float64(m.InFlight.Load()))
	w.Gauge("idemfront_jobs_active", "Front jobs currently merging sub-job results.", float64(js.Active))
	w.Gauge("idemfront_jobs_tracked", "Front jobs in the table (running + terminal).", float64(js.Tracked))
	w.Counter("idemfront_jobs_completed_total", "Front jobs that delivered every unit.", float64(js.Completed))
	w.Counter("idemfront_jobs_canceled_total", "Front jobs canceled by DELETE.", float64(js.Canceled))
	w.Counter("idemfront_jobs_failed_total", "Front jobs failed (a sub-batch exhausted every replica).", float64(js.Failed))
	w.Counter("idemfront_jobs_reaped_total", "Terminal front jobs dropped by the TTL reaper.", float64(js.Reaped))

	w.Gauge("idemfront_uptime_seconds", "Seconds since process start.", time.Since(m.start).Seconds())
	return w.String()
}
