package metrics

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// metricsPage is a /metrics page captured from idemd, with translation
// validation on, after a short seeded idemload run.
func metricsPage(tb testing.TB) string {
	tb.Helper()
	b, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

func TestParseMetricsReadsIdemdPage(t *testing.T) {
	m, err := Parse(strings.NewReader(metricsPage(t)))
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
}

// TestWriterPage pins the text a Writer emits: families in call order,
// series sorted by their label-value tuples, cumulative buckets with
// +Inf last, no braces on an unlabelled series, integers exact and other
// values to nine decimals. Parse reads the page back.
func TestWriterPage(t *testing.T) {
	reqs := NewVec("path", "code")
	reqs.Add(1, "/v1/jobs/{id}", "200")
	reqs.Add(2, "/v1/jobs", "429")
	reqs.Add(1, "/v1/jobs", "200")
	reqs.Add(0, "/metrics", "200")
	lat := NewHistograms([]float64{0.5, 2}, "mode")
	for _, x := range []float64{1, 0.25, 7.125} {
		lat.Observe(x, "poll")
	}
	plain := NewHistograms([]float64{1})
	plain.Observe(3)
	var w Writer
	w.CounterVec("a_total", "A.", reqs)
	w.Histograms("b_seconds", "B.", lat)
	w.Gauge("c", "C.", 1.5)
	w.Counter("d_total", "D.", 1<<40)
	w.Histograms("e", "E.", plain)
	const want = `# HELP a_total A.
# TYPE a_total counter
a_total{path="/metrics",code="200"} 0
a_total{path="/v1/jobs",code="200"} 1
a_total{path="/v1/jobs",code="429"} 2
a_total{path="/v1/jobs/{id}",code="200"} 1
# HELP b_seconds B.
# TYPE b_seconds histogram
b_seconds_bucket{mode="poll",le="0.5"} 1
b_seconds_bucket{mode="poll",le="2"} 2
b_seconds_bucket{mode="poll",le="+Inf"} 3
b_seconds_sum{mode="poll"} 8.375000000
b_seconds_count{mode="poll"} 3
# HELP c C.
# TYPE c gauge
c 1.500000000
# HELP d_total D.
# TYPE d_total counter
d_total 1099511627776
# HELP e E.
# TYPE e histogram
e_bucket{le="1"} 0
e_bucket{le="+Inf"} 1
e_sum 3
e_count 1
`
	if got := w.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
	m, err := Parse(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 15 || m[`b_seconds_sum{mode="poll"}`] != 8.375 {
		t.Errorf("parsed %d series: %v", len(m), m)
	}
}

// TestConcurrentUpdates: handlers update series from many goroutines
// while scrapes render them, and every update lands.
func TestConcurrentUpdates(t *testing.T) {
	v := NewVec("path")
	h := NewHistograms([]float64{1}, "path")
	render := func() string {
		var w Writer
		w.CounterVec("a_total", "A.", v)
		w.Histograms("b", "B.", h)
		return w.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Add(1, path)
				h.Observe(float64(i%3), path)
			}
		}(strconv.Itoa(g % 2))
	}
	for i := 0; i < 20; i++ {
		render()
	}
	wg.Wait()
	m, err := Parse(strings.NewReader(render()))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{`a_total{path="0"}`, `a_total{path="1"}`, `b_count{path="0"}`, `b_count{path="1"}`} {
		if m[series] != 4000 {
			t.Errorf("%s = %v, want 4000", series, m[series])
		}
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
		m, err := Parse(strings.NewReader(tc.in))
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

// FuzzParseMetrics: Parse decodes bytes a scraped daemon sends,
// so it must never panic, and whatever it accepts must survive a
// render-and-reparse round trip unchanged.
func FuzzParseMetrics(f *testing.F) {
	f.Add(metricsPage(f))
	f.Add("a 1\n")
	f.Add(`x{path="/a b",q="\"}"} 7 123`)
	f.Add("a{ 1")
	f.Fuzz(func(t *testing.T, page string) {
		m, err := Parse(strings.NewReader(page))
		if err != nil {
			return
		}
		var b strings.Builder
		for series, v := range m {
			b.WriteString(series + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
		}
		again, err := Parse(strings.NewReader(b.String()))
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
