package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"idemproc/internal/metrics"
)

// TestAssert evaluates -assert expressions against a two-replica scrape
// in which replica b has served no cache hits.
func TestAssert(t *testing.T) {
	a := map[string]float64{
		"idemd_buildcache_hits_total":      6,
		"idemd_buildcache_misses_total":    2,
		"idemd_buildcache_evictions_total": 0,
		"idemd_verify_failed_total":        0,
	}
	b := map[string]float64{
		"idemd_buildcache_hits_total":      0,
		"idemd_buildcache_misses_total":    2,
		"idemd_buildcache_evictions_total": 0,
		"idemd_verify_failed_total":        0,
	}
	fleet := fleetScrape{
		sum: map[string]float64{},
		per: []replicaScrape{{target: "a", m: a}, {target: "b", m: b}},
	}
	for _, r := range fleet.per {
		for k, v := range r.m {
			fleet.sum[k] += v
		}
	}
	const ratio = "idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total"
	for _, tc := range []struct {
		expr string
		pass bool
	}{
		{"idemd_buildcache_hits_total >= 6", true},
		{"idemd_buildcache_hits_total >= 7", false},
		{"idemd_buildcache_misses_total <= 4", true},
		{"idemd_buildcache_misses_total<=3", false},
		{"idemd_verify_failed_total == 0", true},
		{"idemd_buildcache_hits_total == 5", false},
		{"idemd_buildcache_hits_total+idemd_buildcache_misses_total == 10", true},
		{ratio + " >= 0.6", true},
		{ratio + " >= 0.61", false},
		// A zero denominator or a missing series cannot pass.
		{"idemd_buildcache_hits_total / idemd_buildcache_evictions_total >= 0", false},
		{"idemd_no_such_series_total >= 0", false},
		{"idemd_buildcache_hits_total / idemd_no_such_series_total >= 0", false},
		// each: sees replica b's zero hits, which the fleet sum hides.
		{"each:idemd_buildcache_misses_total >= 1", true},
		{"each:idemd_buildcache_hits_total >= 1", false},
		{"idemd_buildcache_hits_total >= 1", true},
	} {
		x, err := parseAssertion(tc.expr)
		if err != nil {
			t.Errorf("%q: %v", tc.expr, err)
			continue
		}
		if err := x.check(fleet); (err == nil) != tc.pass {
			t.Errorf("%q: check = %v, want pass=%v", tc.expr, err, tc.pass)
		}
	}

	for _, bad := range []string{
		"",
		"idemd_buildcache_hits_total",
		"idemd_buildcache_hits_total > 1",
		"idemd_buildcache_hits_total = 1",
		"idemd_buildcache_hits_total >= 1 >= 2",
		"idemd_buildcache_hits_total >== 1",
		"idemd_buildcache_hits_total >= one",
		"idemd_buildcache_hits_total >= NaN",
		"idemd_buildcache_hits_total >= Inf",
		"idemd_buildcache_hits_total{path=\"/\"} >= 1",
		"a / b / c >= 1",
		"a + >= 1",
		"/ a >= 1",
		"each: >= 1",
	} {
		if _, err := parseAssertion(bad); err == nil {
			t.Errorf("%q parsed; want a syntax error", bad)
		}
	}
}

// TestMalformedAssertSendsNothing: a bad -assert is a usage error (exit
// 2) caught before the first request.
func TestMalformedAssertSendsNothing(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	var stderr bytes.Buffer
	code := realMain([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"), "-requests", "4",
		"-assert", "idemd_buildcache_hits_total >= 1",
		"-assert", "idemd_buildcache_hits_total >> 1",
	}, &bytes.Buffer{}, &stderr, nil)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("%d requests sent before the usage error", n)
	}
}

// FuzzAssertExpr: no -assert string may panic the parser or, once
// parsed, the evaluator, on a real idemd /metrics page.
func FuzzAssertExpr(f *testing.F) {
	page, err := os.ReadFile("../../internal/metrics/testdata/metrics.txt")
	if err != nil {
		f.Fatal(err)
	}
	m, err := metrics.Parse(bytes.NewReader(page))
	if err != nil {
		f.Fatal(err)
	}
	fleet := fleetScrape{sum: m, per: []replicaScrape{{target: "r1", m: m}, {target: "r2", m: map[string]float64{}}}}
	for _, seed := range []string{
		"idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total >= 0.5",
		"each:idemd_buildcache_hits_total >= 1",
		"idemd_verify_failed_total == 0",
		"idemd_buildcache_compiles_total <= 2",
		"a / b >= 1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		a, err := parseAssertion(expr)
		if err != nil {
			return
		}
		if a.op == "" || len(a.num) == 0 || (a.den != nil && len(a.den) == 0) {
			t.Fatalf("%q parsed to an incomplete assertion %+v", expr, a)
		}
		a.check(fleet)
	})
}
