package server

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"idemproc/internal/buildcache"
	"idemproc/internal/jobs"
)

// metricsPage is a /metrics page captured from idemd (sampled verify)
// after a short seeded idemload run.
func metricsPage(tb testing.TB) string {
	tb.Helper()
	b, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

func TestParseMetricsReadsIdemdPage(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(metricsPage(t)))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`idemd_http_requests_total{path="/v1/compile",code="200"}`:               29,
		"idemd_buildcache_max_bytes":                                             0,
		`idemd_http_request_duration_seconds_bucket{path="/v1/batch",le="+Inf"}`: 14,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if m["idemd_buildcache_hits_total"] == 0 || m["idemd_uptime_seconds"] == 0 {
		t.Errorf("hits/uptime parsed as zero: %v", m)
	}

	// The renderer and the parser agree on a live registry too.
	live := NewMetrics()
	live.Observe("/v1/simulate", 200, 0)
	live.ObserveChunk("stream", 3)
	if _, err := ParseMetrics(strings.NewReader(live.Render(buildcache.Stats{}, jobs.Stats{}))); err != nil {
		t.Fatalf("parsing a fresh render: %v", err)
	}
}

func TestParseMetricsLines(t *testing.T) {
	for _, tc := range []struct {
		in     string
		series string
		want   float64
		bad    bool
	}{
		{in: "a_total 3", series: "a_total", want: 3},
		{in: "  a:b_c 1.5e3  1700000000000", series: "a:b_c", want: 1500},
		{in: `x{path="/a b",q="\"}"} 7`, series: `x{path="/a b",q="\"}"}`, want: 7},
		{in: "g +Inf", series: "g", want: math.Inf(1)},
		{in: "# HELP a b c\n\n# TYPE a counter\na 1", series: "a", want: 1},
		{in: "a", bad: true},
		{in: "a 1 2 3", bad: true},
		{in: "a one", bad: true},
		{in: "9a 1", bad: true},
		{in: "a-b 1", bad: true},
		{in: `a{x="1" 1`, bad: true},
		{in: "a 1\na 2", bad: true},
		{in: "{} 1", bad: true},
	} {
		m, err := ParseMetrics(strings.NewReader(tc.in))
		if tc.bad {
			if err == nil {
				t.Errorf("%q: parsed as %v, want an error", tc.in, m)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got, ok := m[tc.series]; !ok || got != tc.want || len(m) != 1 {
			t.Errorf("%q: got %v, want {%s: %v}", tc.in, m, tc.series, tc.want)
		}
	}
}

// FuzzParseMetrics: ParseMetrics decodes bytes a replica sends the front,
// so it must never panic, and whatever it accepts must survive a
// render-and-reparse round trip unchanged.
func FuzzParseMetrics(f *testing.F) {
	f.Add(metricsPage(f))
	f.Add("a 1\n")
	f.Add(`x{path="/a b",q="\"}"} 7 123`)
	f.Add("a{ 1")
	f.Fuzz(func(t *testing.T, page string) {
		m, err := ParseMetrics(strings.NewReader(page))
		if err != nil {
			return
		}
		var b strings.Builder
		for series, v := range m {
			b.WriteString(series + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
		}
		again, err := ParseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parsing accepted series: %v\n%s", err, b.String())
		}
		if len(again) != len(m) {
			t.Fatalf("round trip kept %d of %d series", len(again), len(m))
		}
		for series, v := range m {
			if w, ok := again[series]; !ok || (w != v && !(math.IsNaN(w) && math.IsNaN(v))) {
				t.Fatalf("%s: %v became %v", series, v, w)
			}
		}
	})
}
