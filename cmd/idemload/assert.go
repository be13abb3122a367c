// The -assert gate language and the /metrics scrape it runs over.
//
//	-assert 'idemd_buildcache_evictions_total >= 1'
//	-assert 'idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total >= 0.5'
//	-assert 'each:idemd_buildcache_hits_total >= 1'
//
// EXPR is SUM or SUM / SUM, where SUM joins unlabelled series names with
// +; OP is >=, <= or ==. The expression is evaluated on the fleet sum of
// every scrape target, or with an each: prefix on every target alone. A
// missing series or a zero denominator fails the assertion: a gate that
// cannot be evaluated does not pass.
package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"

	"idemproc/internal/metrics"
)

// assertion is one parsed -assert expression.
type assertion struct {
	src      string
	each     bool
	num, den []string // den is nil for a plain sum
	op       string
	bound    float64
}

// assertions is the repeatable -assert flag. Set parses eagerly, so a
// malformed expression fails flag parsing (exit 2) before any traffic.
type assertions []assertion

func (as *assertions) String() string {
	srcs := make([]string, len(*as))
	for i, a := range *as {
		srcs[i] = a.src
	}
	return strings.Join(srcs, "; ")
}

func (as *assertions) Set(s string) error {
	a, err := parseAssertion(s)
	if err != nil {
		return err
	}
	*as = append(*as, a)
	return nil
}

var (
	assertOps  = []string{">=", "<=", "=="}
	seriesName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
)

func parseAssertion(s string) (assertion, error) {
	a := assertion{src: strings.TrimSpace(s)}
	expr, each := strings.CutPrefix(a.src, "each:")
	a.each = each
	ops := 0
	at := -1
	for _, op := range assertOps {
		if n := strings.Count(expr, op); n > 0 {
			ops += n
			at, a.op = strings.Index(expr, op), op
		}
	}
	if ops != 1 {
		return a, errors.New("want EXPR OP NUMBER with exactly one OP of >=, <=, ==")
	}
	rhs := strings.TrimSpace(expr[at+len(a.op):])
	bound, err := strconv.ParseFloat(rhs, 64)
	if err != nil || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return a, fmt.Errorf("%q is not a finite number", rhs)
	}
	a.bound = bound
	num, den, isRatio := strings.Cut(expr[:at], "/")
	if a.num, err = parseSum(num); err != nil || !isRatio {
		return a, err
	}
	a.den, err = parseSum(den)
	return a, err
}

// parseSum parses NAME(+NAME)*.
func parseSum(s string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(s, "+") {
		n = strings.TrimSpace(n)
		if !seriesName.MatchString(n) {
			return nil, fmt.Errorf("%q is not an unlabelled series name", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// value computes EXPR over one scrape's series.
func (a assertion) value(m map[string]float64) (float64, error) {
	num, err := sumOf(m, a.num)
	if err != nil || a.den == nil {
		return num, err
	}
	den, err := sumOf(m, a.den)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return 0, fmt.Errorf("denominator %s is zero", strings.Join(a.den, "+"))
	}
	return num / den, nil
}

func sumOf(m map[string]float64, names []string) (float64, error) {
	total := 0.0
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return 0, fmt.Errorf("no series %s", n)
		}
		total += v
	}
	return total, nil
}

// check evaluates the assertion on the fleet sum, or with each: on every
// scrape target alone.
func (a assertion) check(fs fleetScrape) error {
	if !a.each {
		return a.checkOne(fs.sum, "the fleet sum")
	}
	for _, r := range fs.per {
		if err := a.checkOne(r.m, r.target); err != nil {
			return err
		}
	}
	return nil
}

func (a assertion) checkOne(m map[string]float64, where string) error {
	v, err := a.value(m)
	if err != nil {
		return fmt.Errorf("-assert %q on %s: %v", a.src, where, err)
	}
	var ok bool
	switch a.op {
	case ">=":
		ok = v >= a.bound
	case "<=":
		ok = v <= a.bound
	default:
		ok = v == a.bound
	}
	if !ok {
		return fmt.Errorf("-assert %q on %s: got %g", a.src, where, v)
	}
	return nil
}

// replicaScrape is one target's scrape outcome, kept separate so
// failures stay visible instead of vanishing into a partial sum.
type replicaScrape struct {
	target string
	m      map[string]float64
	err    error
}

// fleetScrape is one scrape of every target: the per-target series,
// their sum, and how many targets failed. Callers decide whether a
// partial view is acceptable (the JSON summary reports errs as
// scrape_errors either way).
type fleetScrape struct {
	sum  map[string]float64
	per  []replicaScrape
	errs int
}

func scrapeFleet(client *http.Client, targets []string) fleetScrape {
	fs := fleetScrape{sum: map[string]float64{}}
	for _, tgt := range targets {
		m, err := scrapeTarget(client, "http://"+tgt)
		fs.per = append(fs.per, replicaScrape{target: tgt, m: m, err: err})
		if err != nil {
			fs.errs++
			continue
		}
		for k, v := range m {
			fs.sum[k] += v
		}
	}
	return fs
}

func scrapeTarget(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return metrics.Parse(resp.Body)
}

// count reads an idemd_ counter from a scrape (0 when absent).
func count(m map[string]float64, name string) int64 { return int64(m["idemd_"+name]) }

// ratio is hits/(hits+misses) over two idemd_ counters, 0 when both are
// zero.
func ratio(m map[string]float64, hits, misses string) float64 {
	h, n := m["idemd_"+hits], m["idemd_"+misses]
	if h+n == 0 {
		return 0
	}
	return h / (h + n)
}
