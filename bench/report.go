package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports; BENCHMARK.json fixes the
// direction and bound of each. An "op" is one figure-driver call
// (figures), one Cache.Compile call (compile) or one HTTP request
// (serve, churn).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"class_p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what every traced run reports. The first group comes from
// the layer suite (the same replay and machine probe in every workload,
// see layers.go); the rest from the workload's own traced ops.
var perLayer = []metricDef{
	{"lang.ms_per_program", "ms"},
	{"core.ms_per_program", "ms"},
	{"core.cuts", "count"},
	{"codegen.ms_per_program", "ms"},
	{"codegen.repair_cuts", "count"},
	{"codegen.spills", "count"},
	{"codegen.link_ms_per_program", "ms"},
	{"codegen.encode_ms_per_program", "ms"},
	{"codegen.decode_ms_per_program", "ms"},
	{"machine.predecode_ms_per_program", "ms"},
	{"verify.ms_per_program", "ms"},
	{"verify.regions", "count"},
	{"verify.share", "ratio"},
	{"machine.ns_per_instr", "ns"},
	{"machine.dyn_instrs", "count"},
	{"trace.replay_coverage", "ratio"},

	{"trace.ops_per_s", "1/s"},
	{"buildcache.hit_ratio", "ratio"},
	{"buildcache.compile_ms_per_compile", "ms"},
	{"buildcache.compiles_per_op", "ratio"},
	{"buildcache.evictions_per_op", "ratio"},
	{"buildcache.disk_hits_per_op", "ratio"},
	{"buildcache.disk_writes_per_op", "ratio"},
	{"verify.checks_per_op", "ratio"},
	{"experiments.pool_busy", "ratio"},
	{"server.share", "ratio"},
	{"server.shed", "count"},
	{"server.sim_preempted", "count"},
}

// catalogMetrics attaches units to values, filling every catalog name: a
// count or share of a layer the workload bypasses is 0.
func catalogMetrics(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// observation is what a workload measured, before it becomes metrics.
// A shared host's speed can drift for seconds at a time, so throughput
// and memory are medians over slices of the timed phase (rounds, or
// tenths of a request stream), not totals, and every time is scaled by
// the host speed over it (calibrate.go).
type observation struct {
	setup   []time.Duration // one per set-up repetition
	lat     []sample        // one per completed op of the timed phase
	windows []window        // consecutive slices of the timed phase
	// speeds are the host speeds measured before the set-ups, before
	// each window and after the last.
	speeds    []float64
	rssMiB    []float64 // peak resident memory, per round or whole run
	attempted int
	failed    int
	problems  []string
	shape     shape
	layers    map[string]float64
	detail    map[string]float64
	digests   expectations
}

// sample is one op's latency. Ops of one class (a figure driver, a
// compile key, a kind of request on one workload and scheme) cost about
// the same.
type sample struct {
	class  string
	d      time.Duration
	window int
}

// window is a slice of the timed phase: ops completed in dur.
type window struct {
	ops int
	dur time.Duration
}

// calibrate measures the host speed before the next window, or after
// the last.
func (o *observation) calibrate(cfg config) { o.speeds = append(o.speeds, cfg.hostSpeed()) }

// speed is the host speed over window i, or over the set-ups for i = -1:
// the mean of the measurements just before and just after it.
func (o *observation) speed(i int) float64 { return (o.speeds[i+1] + o.speeds[i+2]) / 2 }

// elapsed is the timed phase's total wall time.
func (o *observation) elapsed() time.Duration {
	var d time.Duration
	for _, w := range o.windows {
		d += w.dur
	}
	return d
}

// fail counts one failed op, keeping the first few reasons.
func (o *observation) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func endToEndMetrics(o *observation) map[string]metric {
	ms := make([]float64, len(o.lat))
	byClass := map[string][]float64{}
	for i, s := range o.lat {
		ms[i] = o.speed(s.window) * float64(s.d.Nanoseconds()) / 1e6
		byClass[s.class] = append(byClass[s.class], ms[i])
	}
	sort.Float64s(ms)
	// class_p50_ms is each class's median latency, averaged geometrically
	// over the ops. A mix of cheap and costly ops has no steady overall
	// median: it falls on the edge between two clusters and jumps with
	// small shifts in either.
	var logSum float64
	for _, xs := range byClass {
		logSum += float64(len(xs)) * math.Log(median(xs))
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = o.speed(-1) * d.Seconds()
	}
	rates := make([]float64, len(o.windows))
	for i, w := range o.windows {
		rates[i] = float64(w.ops) / (o.speed(i) * w.dur.Seconds())
	}
	return catalogMetrics(endToEnd, map[string]float64{
		"setup_s":      median(setup),
		"ops_per_s":    median(rates),
		"class_p50_ms": math.Exp(logSum / float64(max(len(ms), 1))),
		"tail_ms":      percentile(ms, tailQuantile(len(ms))),
		"peak_rss_mb":  median(o.rssMiB),
	})
}

// speedDetails records the host speed and the unscaled throughput, so a
// reader can see how much the scaling moved a run.
func speedDetails(o *observation) {
	speeds := make([]float64, len(o.windows))
	raw := make([]float64, len(o.windows))
	for i, w := range o.windows {
		speeds[i] = o.speed(i)
		raw[i] = float64(w.ops) / w.dur.Seconds()
	}
	o.detail["host.speed"] = median(speeds)
	o.detail["unscaled.ops_per_s"] = median(raw)
}

// tailQuantile is the highest quantile, up to p99, with at least ten
// samples beyond it.
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, 1-10/float64(max(n, 1))))
}

// result is one workload run, as -json writes it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Shape     shape              `json:"shape"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Layers    map[string]metric  `json:"per_layer,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"`

	digests expectations
	spans   []span
}

// shape records how much work a run did and how it was offered.
type shape struct {
	Loop     string `json:"loop"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds,omitempty"`
	Requests int    `json:"requests,omitempty"`
	// Samples is the number of latencies behind class_p50_ms and tail_ms;
	// TailPercentile is the percentile tail_ms reports.
	Samples        int     `json:"samples"`
	TailPercentile float64 `json:"tail_percentile"`
	SetupReps      int     `json:"setup_reps"`
}

func (s shape) String() string {
	return fmt.Sprintf("%s loop, %d clients, %d rounds, %d requests, %d samples (tail_ms is p%.4g), %d set-ups",
		s.Loop, s.Clients, s.Rounds, s.Requests, s.Samples, s.TailPercentile, s.SetupReps)
}

// host records where a result was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s commit %s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit is `git rev-parse HEAD` of the working directory, or "unknown"
// outside a git checkout (git is not even started there).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// roundPeakRSS runs one round and returns this process's peak resident
// memory during it (Linux resets VmHWM on writing 5 to clear_refs).
func roundPeakRSS(round func()) (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting peak RSS: %w", err)
	}
	round()
	return peakRSSMiB(os.Getpid())
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method); with fewer than two values all three are that
// value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints, for every (workload, end-to-end metric) pair, the
// quartiles of each side's untraced runs and whether side b's median is
// within the metric's bound of side a's. It exits 1 if any pair is not.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	var sa, sb suiteFile
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &bf}, {a, &sa}, {b, &sb}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	values := func(s *suiteFile, wl, name string) []float64 {
		var out []float64
		for _, r := range s.Runs {
			if r.Workload == wl && !r.Trace {
				if m, ok := r.EndToEnd[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "a: %s (%s)\nb: %s (%s)\n", a, sa.Host, b, sb.Host)
	fmt.Fprintf(stdout, "%-8s %-12s %-36s %-36s %8s %6s %s\n", "workload", "metric", "a q1/median/q3", "b q1/median/q3", "worse", "bound", "verdict")
	code := 0
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			va, vb := values(&sa, wl, m.Name), values(&sb, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			worse := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			if worse > m.Bound {
				verdict = "WORSE THAN BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-12s %-36s %-36s %+7.1f%% %5.0f%% %s\n", wl, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", qa[0], qa[1], qa[2]), fmt.Sprintf("%.4g/%.4g/%.4g", qb[0], qb[1], qb[2]),
				100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
