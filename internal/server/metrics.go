// Hand-rolled Prometheus text-format metrics for idemd: per-endpoint
// request/error counters and latency histograms, an in-flight gauge,
// shed (429) counts, and the compile cache's counters. No dependency on
// a metrics library — the exposition format is plain text and the
// daemon's metric set is small and fixed (docs/service.md catalogs it).
// ParseMetrics is the matching reader, shared by everything that scrapes
// idemd: the front tier's fleet totals and idemload's -assert gates.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
)

// latencyBuckets are the histogram upper bounds in seconds (a +Inf
// bucket is implicit).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// chunkBuckets are the per-delivery result-count upper bounds for the
// job poll/stream chunk histogram (bounded by MaxBatchUnits).
var chunkBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// endpointStats accumulates one path's counters. Guarded by Metrics.mu:
// the request rate a single simulator-bound daemon sustains is far below
// the contention point of a mutex, and a mutex keeps the histogram and
// its sum/count coherent in one shot.
type endpointStats struct {
	codes      map[int]int64
	buckets    []int64 // cumulative form is computed at render time
	count      int64
	sumSeconds float64
	errors     int64 // 4xx + 5xx responses
}

// chunkStats accumulates one delivery mode's (poll/stream) chunk-size
// histogram. Guarded by Metrics.mu.
type chunkStats struct {
	buckets  []int64
	count    int64
	sumUnits int64
}

// Metrics is the daemon's metric registry.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	chunks    map[string]*chunkStats

	// inflight/shed are touched on the hot path before any handler work
	// and read lock-free by the renderer.
	inflight atomic.Int64
	shed     atomic.Int64
	// simPreempted counts simulations stopped early by request
	// cancellation or deadline (machine.ErrPreempted).
	simPreempted atomic.Int64

	start time.Time
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: map[string]*endpointStats{},
		chunks:    map[string]*chunkStats{},
		start:     time.Now(),
	}
}

// ObserveChunk records one job result delivery of n units via mode
// ("poll" or "stream").
func (m *Metrics) ObserveChunk(mode string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs := m.chunks[mode]
	if cs == nil {
		cs = &chunkStats{buckets: make([]int64, len(chunkBuckets))}
		m.chunks[mode] = cs
	}
	cs.count++
	cs.sumUnits += int64(n)
	for i, ub := range chunkBuckets {
		if n <= ub {
			cs.buckets[i]++
			break
		}
	}
}

// Observe records one finished request.
func (m *Metrics) Observe(path string, code int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[path]
	if ep == nil {
		ep = &endpointStats{codes: map[int]int64{}, buckets: make([]int64, len(latencyBuckets))}
		m.endpoints[path] = ep
	}
	ep.codes[code]++
	ep.count++
	ep.sumSeconds += sec
	if code >= 400 {
		ep.errors++
	}
	for i, ub := range latencyBuckets {
		if sec <= ub {
			ep.buckets[i]++
			break
		}
	}
}

// Shed records one load-shed (429) rejection; the rejection is also
// Observed like any response.
func (m *Metrics) Shed() { m.shed.Add(1) }

// InFlight tracks the in-flight request gauge; call the returned func on
// completion.
func (m *Metrics) InFlight() func() {
	m.inflight.Add(1)
	return func() { m.inflight.Add(-1) }
}

// InFlightNow reads the gauge (tests poll this through /metrics).
func (m *Metrics) InFlightNow() int64 { return m.inflight.Load() }

// SimPreempted records one simulation stopped early by cancellation.
func (m *Metrics) SimPreempted() { m.simPreempted.Add(1) }

// SimPreemptedNow reads the preemption counter (tests poll this).
func (m *Metrics) SimPreemptedNow() int64 { return m.simPreempted.Load() }

// Render emits the Prometheus text exposition. Output ordering is
// deterministic (sorted paths and codes) so scrapes diff cleanly.
func (m *Metrics) Render(cache buildcache.Stats, js jobs.Stats) string {
	var b strings.Builder

	m.mu.Lock()
	paths := make([]string, 0, len(m.endpoints))
	for p := range m.endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	fmt.Fprintf(&b, "# HELP idemd_http_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(&b, "# TYPE idemd_http_requests_total counter\n")
	for _, p := range paths {
		ep := m.endpoints[p]
		codes := make([]int, 0, len(ep.codes))
		for c := range ep.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "idemd_http_requests_total{path=%q,code=\"%d\"} %d\n", p, c, ep.codes[c])
		}
	}

	fmt.Fprintf(&b, "# HELP idemd_http_request_errors_total 4xx/5xx responses, by path.\n")
	fmt.Fprintf(&b, "# TYPE idemd_http_request_errors_total counter\n")
	for _, p := range paths {
		fmt.Fprintf(&b, "idemd_http_request_errors_total{path=%q} %d\n", p, m.endpoints[p].errors)
	}

	fmt.Fprintf(&b, "# HELP idemd_http_request_duration_seconds Request latency histogram, by path.\n")
	fmt.Fprintf(&b, "# TYPE idemd_http_request_duration_seconds histogram\n")
	for _, p := range paths {
		ep := m.endpoints[p]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += ep.buckets[i]
			fmt.Fprintf(&b, "idemd_http_request_duration_seconds_bucket{path=%q,le=\"%g\"} %d\n", p, ub, cum)
		}
		fmt.Fprintf(&b, "idemd_http_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", p, ep.count)
		fmt.Fprintf(&b, "idemd_http_request_duration_seconds_sum{path=%q} %.9f\n", p, ep.sumSeconds)
		fmt.Fprintf(&b, "idemd_http_request_duration_seconds_count{path=%q} %d\n", p, ep.count)
	}

	modes := make([]string, 0, len(m.chunks))
	for mode := range m.chunks {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	fmt.Fprintf(&b, "# HELP idemd_jobs_chunk_units Job results per delivery chunk, by mode (poll/stream).\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_chunk_units histogram\n")
	for _, mode := range modes {
		cs := m.chunks[mode]
		cum := int64(0)
		for i, ub := range chunkBuckets {
			cum += cs.buckets[i]
			fmt.Fprintf(&b, "idemd_jobs_chunk_units_bucket{mode=%q,le=\"%d\"} %d\n", mode, ub, cum)
		}
		fmt.Fprintf(&b, "idemd_jobs_chunk_units_bucket{mode=%q,le=\"+Inf\"} %d\n", mode, cs.count)
		fmt.Fprintf(&b, "idemd_jobs_chunk_units_sum{mode=%q} %d\n", mode, cs.sumUnits)
		fmt.Fprintf(&b, "idemd_jobs_chunk_units_count{mode=%q} %d\n", mode, cs.count)
	}
	m.mu.Unlock()

	fmt.Fprintf(&b, "# HELP idemd_jobs_active Jobs currently running.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_active gauge\n")
	fmt.Fprintf(&b, "idemd_jobs_active %d\n", js.Active)
	fmt.Fprintf(&b, "# HELP idemd_jobs_tracked Jobs in the table (running + finished awaiting TTL).\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_tracked gauge\n")
	fmt.Fprintf(&b, "idemd_jobs_tracked %d\n", js.Tracked)
	fmt.Fprintf(&b, "# HELP idemd_jobs_completed_total Jobs that delivered every unit.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_completed_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_completed_total %d\n", js.Completed)
	fmt.Fprintf(&b, "# HELP idemd_jobs_canceled_total Jobs canceled via DELETE.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_canceled_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_canceled_total %d\n", js.Canceled)
	fmt.Fprintf(&b, "# HELP idemd_jobs_failed_total Jobs failed by an external feeder.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_failed_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_failed_total %d\n", js.Failed)
	fmt.Fprintf(&b, "# HELP idemd_jobs_reaped_total Finished jobs removed after their TTL.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_reaped_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_reaped_total %d\n", js.Reaped)
	fmt.Fprintf(&b, "# HELP idemd_jobs_resumed_total Journaled jobs resumed mid-flight after a restart.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_resumed_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_resumed_total %d\n", js.ResumedJobs)
	fmt.Fprintf(&b, "# HELP idemd_jobs_resumed_units_total Unit results reloaded from journals instead of re-executed.\n")
	fmt.Fprintf(&b, "# TYPE idemd_jobs_resumed_units_total counter\n")
	fmt.Fprintf(&b, "idemd_jobs_resumed_units_total %d\n", js.ResumedUnits)

	fmt.Fprintf(&b, "# HELP idemd_http_inflight_requests Requests currently being served.\n")
	fmt.Fprintf(&b, "# TYPE idemd_http_inflight_requests gauge\n")
	fmt.Fprintf(&b, "idemd_http_inflight_requests %d\n", m.inflight.Load())

	fmt.Fprintf(&b, "# HELP idemd_http_shed_total Requests rejected with 429 by the concurrency limiter.\n")
	fmt.Fprintf(&b, "# TYPE idemd_http_shed_total counter\n")
	fmt.Fprintf(&b, "idemd_http_shed_total %d\n", m.shed.Load())

	fmt.Fprintf(&b, "# HELP idemd_sim_preempted_total Simulations stopped early by request cancellation or deadline.\n")
	fmt.Fprintf(&b, "# TYPE idemd_sim_preempted_total counter\n")
	fmt.Fprintf(&b, "idemd_sim_preempted_total %d\n", m.simPreempted.Load())

	fmt.Fprintf(&b, "# HELP idemd_buildcache_hits_total Compile cache hits.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_hits_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_misses_total Compile cache misses (builds started: compile or disk load).\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_misses_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_evictions_total Entries evicted by the byte bound.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_evictions_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_entries Resident cache entries.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_entries gauge\n")
	fmt.Fprintf(&b, "idemd_buildcache_entries %d\n", cache.Distinct)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_bytes Estimated resident bytes of completed entries.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_bytes gauge\n")
	fmt.Fprintf(&b, "idemd_buildcache_bytes %d\n", cache.BytesInUse)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_max_bytes Configured cache byte bound (0 = unbounded).\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_max_bytes gauge\n")
	fmt.Fprintf(&b, "idemd_buildcache_max_bytes %d\n", cache.MaxBytes)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_compile_seconds_total Wall time spent compiling, summed across workers.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_compile_seconds_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_compile_seconds_total %.9f\n", cache.CompileTime.Seconds())
	fmt.Fprintf(&b, "# HELP idemd_buildcache_compiles_total Actual codegen runs (misses not served by the disk tier).\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_compiles_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_compiles_total %d\n", cache.Compiles)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_disk_hits_total Cache misses served from a persisted artifact.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_disk_hits_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_disk_hits_total %d\n", cache.DiskHits)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_disk_misses_total Disk-tier lookups not served (no artifact, stale, or corrupt).\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_disk_misses_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_disk_misses_total %d\n", cache.DiskMisses)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_disk_writes_total Artifacts persisted by write-behind.\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_disk_writes_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_disk_writes_total %d\n", cache.DiskWrites)
	fmt.Fprintf(&b, "# HELP idemd_buildcache_disk_corrupt_total Invalid artifacts found and pruned (subset of disk misses).\n")
	fmt.Fprintf(&b, "# TYPE idemd_buildcache_disk_corrupt_total counter\n")
	fmt.Fprintf(&b, "idemd_buildcache_disk_corrupt_total %d\n", cache.DiskCorrupt)
	fmt.Fprintf(&b, "# HELP idemd_verify_checked_total Programs re-checked by the translation validator (fresh compiles and decoded artifacts).\n")
	fmt.Fprintf(&b, "# TYPE idemd_verify_checked_total counter\n")
	fmt.Fprintf(&b, "idemd_verify_checked_total %d\n", cache.VerifyChecked)
	fmt.Fprintf(&b, "# HELP idemd_verify_failed_total Validator runs that found criterion violations.\n")
	fmt.Fprintf(&b, "# TYPE idemd_verify_failed_total counter\n")
	fmt.Fprintf(&b, "idemd_verify_failed_total %d\n", cache.VerifyFailed)
	fmt.Fprintf(&b, "# HELP idemd_verify_rejected_artifacts_total Decode-clean disk artifacts pruned after failing verification (subset of failed).\n")
	fmt.Fprintf(&b, "# TYPE idemd_verify_rejected_artifacts_total counter\n")
	fmt.Fprintf(&b, "idemd_verify_rejected_artifacts_total %d\n", cache.VerifyRejectedArtifacts)
	fmt.Fprintf(&b, "# HELP idemd_verify_nanos_total Wall time spent inside the translation validator, nanoseconds.\n")
	fmt.Fprintf(&b, "# TYPE idemd_verify_nanos_total counter\n")
	fmt.Fprintf(&b, "idemd_verify_nanos_total %d\n", cache.VerifyNanos)

	fmt.Fprintf(&b, "# HELP idemd_uptime_seconds Seconds since process start.\n")
	fmt.Fprintf(&b, "# TYPE idemd_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "idemd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	return b.String()
}

// ParseMetrics reads a Prometheus text exposition into a map from series
// (the metric name plus its label set, verbatim: `name` or
// `name{k="v",...}`) to value. Comment and blank lines are skipped; a
// trailing timestamp is ignored. Input may come from an untrusted peer,
// so every malformed line — a bad name, an unterminated label set, a
// missing or unparseable value, a duplicate series — is an error rather
// than a guess.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	out := map[string]float64{}
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest, err := cutSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp after %s", n, series)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %w", n, fields[0], err)
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate series %s", n, series)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// cutSeries splits a sample line into its series (name and optional
// label set) and the remainder. Label values may hold spaces and escaped
// quotes, so the label set is scanned rather than split.
func cutSeries(line string) (series, rest string, err error) {
	i := 0
	for i < len(line) && isNameByte(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", "", errors.New("missing metric name")
	}
	if i < len(line) && line[i] == '{' {
		inQuote, escaped := false, false
		for i++; ; i++ {
			if i >= len(line) {
				return "", "", errors.New("unterminated label set")
			}
			c := line[i]
			switch {
			case escaped:
				escaped = false
			case c == '\\' && inQuote:
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				i++
				return line[:i], line[i:], nil
			}
		}
	}
	if i < len(line) && line[i] != ' ' && line[i] != '\t' {
		return "", "", fmt.Errorf("invalid byte %q in metric name", line[i])
	}
	return line[:i], line[i:], nil
}

// isNameByte reports whether c may appear in a metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
