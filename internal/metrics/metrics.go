// Package metrics owns the Prometheus text exposition format that idemd
// and idemfront serve and that every scraper of them reads. Vec and
// Histograms hold labelled series that request handlers update. A
// Writer renders a page from them and from plain values, one family per
// call in call order, with each family's series sorted by label values,
// so a page is deterministic and diffs cleanly. Parse is the matching
// reader.
package metrics

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// sep joins a series' label values into its map key. It sorts below
// every other byte, so keys sort as their value tuples do.
const sep = "\x00"

// Vec is a family of counters or gauges keyed by label values. It is
// safe for concurrent use.
type Vec struct {
	labels []string
	mu     sync.Mutex
	vals   map[string]float64
}

// NewVec returns an empty family whose series carry the named labels.
func NewVec(labels ...string) *Vec {
	return &Vec{labels: labels, vals: map[string]float64{}}
}

// Add adds d to the series with the given label values, one per label.
// The series is created at zero first, so Add(0, ...) makes it show.
func (v *Vec) Add(d float64, values ...string) {
	k := key(v.labels, values)
	v.mu.Lock()
	v.vals[k] += d
	v.mu.Unlock()
}

// Histograms is a family of histograms over fixed bucket upper bounds
// (a +Inf bucket is implicit), keyed by label values. It is safe for
// concurrent use.
type Histograms struct {
	labels []string
	bounds []float64
	mu     sync.Mutex
	series map[string]*histogram
}

type histogram struct {
	counts []int64 // per bucket, +Inf last; cumulated when rendered
	sum    float64
}

// NewHistograms returns an empty family over ascending bucket bounds
// whose series carry the named labels.
func NewHistograms(bounds []float64, labels ...string) *Histograms {
	return &Histograms{labels: labels, bounds: bounds, series: map[string]*histogram{}}
}

// Observe records x in the histogram with the given label values.
func (h *Histograms) Observe(x float64, values ...string) {
	k := key(h.labels, values)
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.series[k]
	if s == nil {
		s = &histogram{counts: make([]int64, len(h.bounds)+1)}
		h.series[k] = s
	}
	s.counts[sort.SearchFloat64s(h.bounds, x)]++
	s.sum += x
}

func key(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), labels))
	}
	return strings.Join(values, sep)
}

// Writer renders one page. Each method writes one family, its # HELP
// and # TYPE lines first.
type Writer struct{ b strings.Builder }

// String returns the page written so far.
func (w *Writer) String() string { return w.b.String() }

// Counter writes a counter family of one unlabelled series.
func (w *Writer) Counter(name, help string, v float64) {
	w.head(name, "counter", help)
	w.sample(name, "", v)
}

// Gauge writes a gauge family of one unlabelled series.
func (w *Writer) Gauge(name, help string, v float64) {
	w.head(name, "gauge", help)
	w.sample(name, "", v)
}

// CounterVec writes a counter family with every series of v.
func (w *Writer) CounterVec(name, help string, v *Vec) { w.vec(name, "counter", help, v) }

// GaugeVec writes a gauge family with every series of v.
func (w *Writer) GaugeVec(name, help string, v *Vec) { w.vec(name, "gauge", help, v) }

func (w *Writer) vec(name, typ, help string, v *Vec) {
	w.head(name, typ, help)
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeys(v.vals) {
		w.sample(name, labelSet(v.labels, k, ""), v.vals[k])
	}
}

// Histograms writes a histogram family: for every series of h, its
// cumulative buckets, then its sum and count.
func (w *Writer) Histograms(name, help string, h *Histograms) {
	w.head(name, "histogram", help)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range sortedKeys(h.series) {
		s := h.series[k]
		n := int64(0)
		for i, c := range s.counts {
			n += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			w.sample(name+"_bucket", labelSet(h.labels, k, `le="`+le+`"`), float64(n))
		}
		w.sample(name+"_sum", labelSet(h.labels, k, ""), s.sum)
		w.sample(name+"_count", labelSet(h.labels, k, ""), float64(n))
	}
}

func (w *Writer) head(name, typ, help string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one series. Integers are written exactly, and any other
// value to nine decimals, the resolution of the seconds-valued series.
func (w *Writer) sample(name, labels string, v float64) {
	prec := 9
	if v == math.Trunc(v) {
		prec = 0
	}
	w.b.WriteString(name + labels + " " + strconv.FormatFloat(v, 'f', prec, 64) + "\n")
}

// labelSet renders a series key as {label="value",...}, with extra
// (such as a bucket's le pair) last, or as nothing when there is no
// pair at all.
func labelSet(labels []string, key, extra string) string {
	values := strings.SplitN(key, sep, len(labels))
	pairs := make([]string, 0, len(labels)+1)
	for i, l := range labels {
		pairs = append(pairs, l+"="+strconv.Quote(values[i]))
	}
	if extra != "" {
		pairs = append(pairs, extra)
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Parse reads a Prometheus text exposition into a map from series (the
// metric name plus its label set, verbatim: `name` or
// `name{k="v",...}`) to value. Comment and blank lines are skipped; a
// trailing timestamp is ignored. Input may come from an untrusted peer,
// so every malformed line — a bad name, an unterminated label set, a
// missing or unparseable value, a duplicate series — is an error rather
// than a guess.
func Parse(r io.Reader) (map[string]float64, error) {
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
