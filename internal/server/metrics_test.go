package server

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// TestMetricsPageGolden pins idemd's /metrics page: a fixed sequence of
// observations and fixed cache and job snapshots must render every
// series with the value and every family with the type in
// testdata/metrics_page.txt, so a change to how the page is rendered can
// be shown not to change what it says.
func TestMetricsPageGolden(t *testing.T) {
	m := NewMetrics()
	for _, o := range []struct {
		path string
		code int
		d    time.Duration
	}{
		{"/v1/compile", 200, 3 * time.Millisecond},
		{"/v1/compile", 200, 250 * time.Millisecond},
		{"/v1/compile", 429, 40 * time.Microsecond},
		{"/v1/simulate", 200, 1500 * time.Millisecond},
		{"/v1/simulate", 503, 2 * time.Second},
		{"/v1/batch", 400, 700 * time.Microsecond},
		{"/v1/jobs/{id}", 200, 12 * time.Second},
		{"/metrics", 200, 100 * time.Microsecond},
	} {
		m.Observe(o.path, o.code, o.d)
	}
	for _, n := range []float64{1, 3, 64} {
		m.Chunks.Observe(n, "poll")
	}
	for _, n := range []float64{2, 300} {
		m.Chunks.Observe(n, "stream")
	}
	m.Shed.Add(1)
	m.InFlight.Add(1)
	m.SimPreempted.Add(2)
	cache := buildcache.Stats{
		Hits: 41, Misses: 9, Compiles: 6, Distinct: 8,
		CompileTime: 1234567891 * time.Nanosecond,
		Evictions:   2, BytesInUse: 524288, MaxBytes: 1 << 20,
		DiskHits: 3, DiskMisses: 7, DiskWrites: 5, DiskCorrupt: 1,
		VerifyChecked: 11, VerifyFailed: 1, VerifyRejectedArtifacts: 1,
		VerifyNanos: 98765432,
	}
	js := jobs.Stats{Active: 1, Tracked: 4, Completed: 12, Canceled: 2,
		Failed: 1, Reaped: 7, ResumedJobs: 3, ResumedUnits: 19}
	want, err := os.ReadFile("testdata/metrics_page.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := pageSummary(t, m.Render(cache, js), "idemd_uptime_seconds"); got != string(want) {
		t.Errorf("/metrics page changed:\n got\n%s\n want\n%s", got, want)
	}
}

// pageSummary reduces a /metrics page to what a golden pins: every
// # TYPE line in page order, then every parsed series with its value,
// sorted. The uptime gauge is left out, since its value is the clock.
func pageSummary(t *testing.T, page, uptime string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			b.WriteString(line + "\n")
		}
	}
	m, err := metrics.Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m[uptime]; !ok {
		t.Errorf("page has no %s", uptime)
	}
	delete(m, uptime)
	series := make([]string, 0, len(m))
	for s, v := range m {
		series = append(series, s+" "+strconv.FormatFloat(v, 'f', -1, 64)+"\n")
	}
	sort.Strings(series)
	b.WriteString(strings.Join(series, ""))
	return b.String()
}
