package shard

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"idemproc/internal/jobs"
	"idemproc/internal/metrics"
)

// TestFrontMetricsPageGolden pins idemfront's /metrics page: a fixed
// sequence of observations and fixed health and job snapshots must
// render every series with the value and every family with the type in
// testdata/metrics_page.txt.
func TestFrontMetricsPageGolden(t *testing.T) {
	m := NewMetrics()
	for _, o := range []struct {
		id     string
		d      time.Duration
		failed bool
	}{
		{"10.0.0.1:7001", 2 * time.Millisecond, false},
		{"10.0.0.1:7001", 250 * time.Millisecond, false},
		{"10.0.0.2:7001", 40 * time.Microsecond, true},
		{"10.0.0.3:7001", 1500 * time.Millisecond, false},
		{"10.0.0.3:7001", 3 * time.Millisecond, true},
	} {
		m.ObserveBackend(o.id, o.d, o.failed)
	}
	for _, o := range []struct {
		path string
		code int
	}{
		{"/v1/compile", 200}, {"/v1/compile", 200}, {"/v1/compile", 400},
		{"/v1/simulate", 200}, {"/v1/simulate", 503}, {"/v1/batch", 200},
		{"/v1/jobs", 202}, {"/v1/jobs/{id}", 200},
	} {
		m.Observe(o.path, o.code, 0)
	}
	m.RingGen.Add(3)
	m.Rebalances.Add(2)
	m.Failovers.Add(3)
	m.NoReplica.Add(1)
	m.SubBatches.Add(4)
	m.SubJobs.Add(2)
	m.SubJobRetries.Add(1)
	m.InFlight.Add(1)
	healthy := map[string]bool{"10.0.0.1:7001": true, "10.0.0.2:7001": false, "10.0.0.3:7001": true}
	js := jobs.Stats{Active: 1, Tracked: 3, Completed: 5, Canceled: 1, Failed: 2, Reaped: 4}
	want, err := os.ReadFile("testdata/metrics_page.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := pageSummary(t, m.Render(healthy, js), "idemfront_uptime_seconds"); got != string(want) {
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
