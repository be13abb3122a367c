// Command bench is the repository benchmark. It runs four workloads
// against the program's public entry points — the experiment drivers
// (figures), the compile cache (compile) and the idemd daemon over
// loopback HTTP (serve, churn) — checks every output, and prints the
// end-to-end metrics by name and unit. With -trace 1 it records spans
// around every call into a layer and prints the per-layer metrics
// instead. README.md explains the workloads, the metrics and how to
// compare two sets of runs; run.sh builds and runs it:
//
//	bash bench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -runs 3 -json setA.json
//	bash bench/run.sh -trace 1 -trace-out trace.json
//	bash bench/run.sh -compare setA.json setB.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadNames lists the workloads in suite order.
var workloadNames = []string{"figures", "compile", "serve", "churn"}

// config is one workload run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	idemd    string
	work     string
	// exp holds the pinned digests; nil records digests without checking.
	exp *expectations
	// short shrinks every workload to a test-sized slice of its inputs.
	short bool
	// refs overrides the interpreter's reference results (tests use it to
	// show that a wrong reference fails the run).
	refs map[string]uint64
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (figures, compile, serve, churn); empty runs each workload in its own child process")
		seed     = fs.Uint64("seed", 1, "seed of the serve and churn request streams and of the compile order")
		seconds  = fs.Float64("seconds", 15, "run length: the work of a run is sized to take about this long on the reference host")
		trace    = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the recorded spans to this file")
		jsonOut  = fs.String("json", "", "write the full results (host, shape, metrics, details) to this file")
		runs     = fs.Int("runs", 1, "without -workload, run the suite this many times")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments")
		record   = fs.Bool("write-expected", false, "store this run's digests in "+expectedFile+" instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -runs at least 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		idemd: filepath.Join(workDir, "idemd"), work: workDir}
	if *workload == "" {
		return runSuite(cfg, *runs, *jsonOut, *traceOut, *record, stdout, stderr)
	}

	if !*record {
		exp, err := loadExpectations(expectedFile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		cfg.exp = exp
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	if *record {
		if err := recordExpectations(expectedFile, res.Workload, res.digests); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" && cfg.trace {
		if err := writeJSON(*traceOut, traceFile{Workload: res.Workload, Seed: res.Seed, Spans: res.spans}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and turns what it
// observed into metrics.
func runWorkload(cfg config) (*result, error) {
	run, ok := map[string]func(config, *tracer) (*observation, error){
		"figures": runFigures,
		"compile": runCompile,
		"serve":   runServe,
		"churn":   runServe,
	}[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	obs, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	speedDetails(obs)
	obs.shape.Samples = len(obs.lat)
	obs.shape.TailPercentile = 100 * tailQuantile(len(obs.lat))
	res := &result{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		Host:      hostInfo(),
		Shape:     obs.shape,
		Attempted: obs.attempted,
		Failed:    obs.failed,
		Problems:  obs.problems,
		EndToEnd:  endToEndMetrics(obs),
		Detail:    obs.detail,
		digests:   obs.digests,
	}
	if cfg.trace {
		layers, err := layerSuite(cfg, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range obs.layers {
			layers[k] = v
		}
		layers["trace.ops_per_s"] = res.EndToEnd["ops_per_s"].Value
		res.Layers = catalogMetrics(perLayer, layers)
		res.spans = tr.snapshot()
		if err := checkSpans(res.spans); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0 && res.Attempted > 0
	return res, nil
}

// printResult writes the human-readable lines and, last, the one-line
// JSON summary: the end-to-end metrics, or the per-layer ones when
// traced.
func printResult(w io.Writer, res *result) {
	for _, p := range res.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	printMetrics := func(kind string, ms map[string]metric) {
		for _, name := range sortedKeys(ms) {
			fmt.Fprintf(w, "%s %s %s = %.6g %s\n", res.Workload, kind, name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics("end_to_end", res.EndToEnd)
	printMetrics("per_layer", res.Layers)
	for _, name := range sortedKeys(res.Detail) {
		fmt.Fprintf(w, "%s detail %s = %.6g\n", res.Workload, name, res.Detail[name])
	}
	fmt.Fprintf(w, "%s shape: %s\n", res.Workload, res.Shape)
	line := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if res.Trace {
		line.Metrics = res.Layers
	}
	b, _ := json.Marshal(line) // plain structs and float64 values always marshal
	fmt.Fprintln(w, string(b))
}

// summary is the last line of a workload run's standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// suiteFile is what -json holds after a suite run: every run of every
// workload, plus the tracing overhead per workload when traced.
type suiteFile struct {
	Host     host               `json:"host"`
	Runs     []*result          `json:"runs"`
	Overhead map[string]float64 `json:"trace_overhead,omitempty"`
}

// runSuite runs every workload -runs times, each run in a child process
// of its own so that peak memory and GC state belong to that workload
// alone. With -trace 1 each workload also gets a traced run, and the
// tracing overhead is the untraced throughput over the traced one.
func runSuite(cfg config, runs int, jsonOut, traceOut string, record bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cfg.work, "suite-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	suite := suiteFile{Host: hostInfo()}
	var traces []traceFile
	ok := true
	child := func(workload string, trace bool, n int) *result {
		out := filepath.Join(tmp, fmt.Sprintf("%s-%d-%t.json", workload, n, trace))
		args := []string{"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-json", out, "-trace", "0"}
		if trace {
			args[len(args)-1] = "1"
			args = append(args, "-trace-out", out+".trace")
		}
		if record {
			args = append(args, "-write-expected")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		runErr := cmd.Run()
		var res result
		if err := readJSON(out, &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s run %d: %v (%v)\n", workload, n, err, runErr)
			ok = false
			return nil
		}
		if !res.Correct {
			ok = false
		}
		if trace {
			var tf traceFile
			if err := readJSON(out+".trace", &tf); err == nil {
				traces = append(traces, tf)
			}
		}
		return &res
	}

	traced := map[string][]float64{}
	untraced := map[string][]float64{}
	for n := 1; n <= runs; n++ {
		for _, w := range workloadNames {
			if res := child(w, false, n); res != nil {
				suite.Runs = append(suite.Runs, res)
				untraced[w] = append(untraced[w], res.EndToEnd["ops_per_s"].Value)
			}
			if !cfg.trace {
				continue
			}
			if res := child(w, true, n); res != nil {
				suite.Runs = append(suite.Runs, res)
				traced[w] = append(traced[w], res.EndToEnd["ops_per_s"].Value)
			}
		}
	}
	if cfg.trace {
		suite.Overhead = map[string]float64{}
		for _, w := range workloadNames {
			if len(traced[w]) > 0 && len(untraced[w]) > 0 {
				suite.Overhead[w] = median(untraced[w])/median(traced[w]) - 1
			}
		}
	}

	printSuite(stdout, &suite)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, &suite); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if traceOut != "" && cfg.trace {
		if err := writeJSON(traceOut, traces); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: a run failed its correctness checks")
		return 1
	}
	return 0
}

// printSuite prints one row per (workload, end-to-end metric) with the
// median over the suite's untraced runs, then the tracing overhead.
func printSuite(w io.Writer, s *suiteFile) {
	fmt.Fprintf(w, "host: %s\n", s.Host)
	for _, wl := range workloadNames {
		vals := map[string][]float64{}
		for _, r := range s.Runs {
			if r.Workload != wl || r.Trace {
				continue
			}
			for name, m := range r.EndToEnd {
				vals[name] = append(vals[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			if len(vals[d.name]) > 0 {
				fmt.Fprintf(w, "%-8s %-12s median %12.6g %-5s over %d runs\n", wl, d.name, median(vals[d.name]), d.unit, len(vals[d.name]))
			}
		}
	}
	for _, wl := range sortedKeys(s.Overhead) {
		fmt.Fprintf(w, "%-8s tracing overhead %+.1f%% (untraced ops_per_s / traced - 1)\n", wl, 100*s.Overhead[wl])
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// expectations are the pinned correctness digests, generated once with
// -write-expected (README.md says when to regenerate them).
type expectations struct {
	// Figures maps each driver to the sha256 of its formatted table.
	Figures map[string]string `json:"figures,omitempty"`
	// Compile is the combined sha256 over every program's artifact bytes.
	Compile string `json:"compile,omitempty"`
	// Serve and Churn digest the response bodies in request order.
	Serve *streamDigest `json:"serve,omitempty"`
	Churn *streamDigest `json:"churn,omitempty"`
}

// streamDigest pins one request stream's responses. It applies only to
// a run with the same seed and request count.
type streamDigest struct {
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
	Digest   string `json:"digest"`
}

func loadExpectations(path string) (*expectations, error) {
	var e expectations
	if err := readJSON(path, &e); err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	return &e, nil
}

// recordExpectations merges one workload's digests into the file.
func recordExpectations(path, workload string, d expectations) error {
	var e expectations
	if err := readJSON(path, &e); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	switch workload {
	case "figures":
		e.Figures = d.Figures
	case "compile":
		e.Compile = d.Compile
	case "serve":
		e.Serve = d.Serve
	case "churn":
		e.Churn = d.Churn
	}
	return writeJSON(path, &e)
}

const (
	// workDir holds run.sh's builds (the benchmark and idemd) and the
	// daemons' scratch files, relative to the repository root.
	workDir = ".bench_build"
	// expectedFile holds the pinned correctness digests.
	expectedFile = "bench/testdata/expected.json"
	// timeout bounds every wait on the daemon and every HTTP request.
	timeout = 30 * time.Second
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nproc is the width of every in-process pool and the HTTP client count.
func nproc() int { return runtime.NumCPU() }
