// idemd's metrics: per-endpoint request/error counters and latency
// histograms, job result chunk sizes, an in-flight gauge, shed (429)
// and preemption counts, and the compile cache's and job table's
// counters. docs/service.md catalogs the series; internal/metrics owns
// the text format.
package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// latencyBuckets are the histogram upper bounds in seconds (a +Inf
// bucket is implicit).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// chunkBuckets are the per-delivery result-count upper bounds for the
// job poll/stream chunk histogram (bounded by MaxBatchUnits).
var chunkBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics holds the daemon's own series. Handlers bump the exported
// fields directly; the cache and job counters come from their Stats
// snapshots at render time.
type Metrics struct {
	requests *metrics.Vec        // by path and status code
	errors   *metrics.Vec        // 4xx + 5xx responses, by path
	latency  *metrics.Histograms // seconds, by path

	// Chunks counts job results per delivery, by mode ("poll" or
	// "stream").
	Chunks *metrics.Histograms
	// InFlight is the in-flight request gauge. Shed counts load-shed
	// (429) rejections, each also Observed like any response.
	// SimPreempted counts simulations stopped early by request
	// cancellation or deadline (machine.ErrPreempted).
	InFlight, Shed, SimPreempted atomic.Int64

	start time.Time
}

// NewMetrics returns an empty set of series.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: metrics.NewVec("path", "code"),
		errors:   metrics.NewVec("path"),
		latency:  metrics.NewHistograms(latencyBuckets, "path"),
		Chunks:   metrics.NewHistograms(chunkBuckets, "mode"),
		start:    time.Now(),
	}
}

// Observe records one finished request.
func (m *Metrics) Observe(path string, code int, d time.Duration) {
	m.requests.Add(1, path, strconv.Itoa(code))
	failed := 0.0
	if code >= 400 {
		failed = 1
	}
	m.errors.Add(failed, path)
	m.latency.Observe(d.Seconds(), path)
}

// Render emits the Prometheus text exposition.
func (m *Metrics) Render(cache buildcache.Stats, js jobs.Stats) string {
	var w metrics.Writer
	w.CounterVec("idemd_http_requests_total", "Requests served, by path and status code.", m.requests)
	w.CounterVec("idemd_http_request_errors_total", "4xx/5xx responses, by path.", m.errors)
	w.Histograms("idemd_http_request_duration_seconds", "Request latency histogram, by path.", m.latency)
	w.Histograms("idemd_jobs_chunk_units", "Job results per delivery chunk, by mode (poll/stream).", m.Chunks)

	w.Gauge("idemd_jobs_active", "Jobs currently running.", float64(js.Active))
	w.Gauge("idemd_jobs_tracked", "Jobs in the table (running + finished awaiting TTL).", float64(js.Tracked))
	w.Counter("idemd_jobs_completed_total", "Jobs that delivered every unit.", float64(js.Completed))
	w.Counter("idemd_jobs_canceled_total", "Jobs canceled via DELETE.", float64(js.Canceled))
	w.Counter("idemd_jobs_failed_total", "Jobs failed by an external feeder.", float64(js.Failed))
	w.Counter("idemd_jobs_reaped_total", "Finished jobs removed after their TTL.", float64(js.Reaped))
	w.Counter("idemd_jobs_resumed_total", "Journaled jobs resumed mid-flight after a restart.", float64(js.ResumedJobs))
	w.Counter("idemd_jobs_resumed_units_total", "Unit results reloaded from journals instead of re-executed.", float64(js.ResumedUnits))

	w.Gauge("idemd_http_inflight_requests", "Requests currently being served.", float64(m.InFlight.Load()))
	w.Counter("idemd_http_shed_total", "Requests rejected with 429 by the concurrency limiter.", float64(m.Shed.Load()))
	w.Counter("idemd_sim_preempted_total", "Simulations stopped early by request cancellation or deadline.", float64(m.SimPreempted.Load()))

	w.Counter("idemd_buildcache_hits_total", "Compile cache hits.", float64(cache.Hits))
	w.Counter("idemd_buildcache_misses_total", "Compile cache misses (builds started: compile or disk load).", float64(cache.Misses))
	w.Counter("idemd_buildcache_evictions_total", "Entries evicted by the byte bound.", float64(cache.Evictions))
	w.Gauge("idemd_buildcache_entries", "Resident cache entries.", float64(cache.Distinct))
	w.Gauge("idemd_buildcache_bytes", "Estimated resident bytes of completed entries.", float64(cache.BytesInUse))
	w.Gauge("idemd_buildcache_max_bytes", "Configured cache byte bound (0 = unbounded).", float64(cache.MaxBytes))
	w.Counter("idemd_buildcache_compile_seconds_total", "Wall time spent compiling, summed across workers.", cache.CompileTime.Seconds())
	w.Counter("idemd_buildcache_compiles_total", "Actual codegen runs (misses not served by the disk tier).", float64(cache.Compiles))
	w.Counter("idemd_buildcache_disk_hits_total", "Cache misses served from a persisted artifact.", float64(cache.DiskHits))
	w.Counter("idemd_buildcache_disk_misses_total", "Disk-tier lookups not served (no artifact, stale, or corrupt).", float64(cache.DiskMisses))
	w.Counter("idemd_buildcache_disk_writes_total", "Artifacts persisted by write-behind.", float64(cache.DiskWrites))
	w.Counter("idemd_buildcache_disk_corrupt_total", "Invalid artifacts found and pruned (subset of disk misses).", float64(cache.DiskCorrupt))
	w.Counter("idemd_verify_checked_total", "Programs re-checked by the translation validator (fresh compiles and decoded artifacts).", float64(cache.VerifyChecked))
	w.Counter("idemd_verify_failed_total", "Validator runs that found criterion violations.", float64(cache.VerifyFailed))
	w.Counter("idemd_verify_rejected_artifacts_total", "Decode-clean disk artifacts pruned after failing verification (subset of failed).", float64(cache.VerifyRejectedArtifacts))
	w.Counter("idemd_verify_nanos_total", "Wall time spent inside the translation validator, nanoseconds.", float64(cache.VerifyNanos))

	w.Gauge("idemd_uptime_seconds", "Seconds since process start.", time.Since(m.start).Seconds())
	return w.String()
}
