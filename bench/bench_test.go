package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"idemproc/internal/server"
)

// idemdPath is the daemon the serve and churn tests boot, built once.
var idemdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	idemdPath = filepath.Join(dir, "idemd")
	if out, err := exec.Command("go", "build", "-o", idemdPath, "idemproc/cmd/idemd").CombinedOutput(); err != nil {
		panic("building idemd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// shortConfig is a test-sized run of one workload.
func shortConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, seconds: 0.5, idemd: idemdPath, work: t.TempDir(), short: true}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// traced and checks that it emits every metric the file names, with the
// file's unit, that its span tree is well-formed, and that the trace
// file round-trips.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := shortConfig(t, w.Name)
			cfg.trace = true
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("run failed its checks: %d of %d failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			if res.Shape.Samples == 0 || res.Shape.TailPercentile == 0 {
				t.Errorf("shape lacks its sample count or tail percentile: %+v", res.Shape)
			}
			for _, m := range bf.EndToEnd {
				if got, ok := res.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			// Counts and shares of a bypassed layer may be 0; a time or a
			// size is always measured.
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %g", name, m.Value)
				}
			}
			for name, m := range res.Layers {
				if m.Unit != "count" && m.Unit != "ratio" && m.Value <= 0 {
					t.Errorf("per-layer %s = %g %s", name, m.Value, m.Unit)
				}
			}
			if len(res.EndToEnd) != len(bf.EndToEnd) || len(res.Layers) != len(bf.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(res.EndToEnd), len(res.Layers), len(bf.EndToEnd), len(bf.PerLayer))
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeJSON(path, traceFile{Workload: res.Workload, Spans: res.spans}); err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := readJSON(path, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace has no spans")
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckSpansRejectsMalformedTrees: the well-formedness check is not
// vacuous.
func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	good := []span{{ID: 1, Trace: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Trace: 1, Start: 2, End: 8}}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]span{
		"escapes parent": {good[0], {ID: 2, Parent: 1, Trace: 1, Start: 2, End: 11}},
		"other trace":    {good[0], {ID: 2, Parent: 1, Trace: 2, Start: 2, End: 8}},
		"unclosed":       {good[0], {ID: 2, Parent: 1, Trace: 1, Start: 2, End: -1}},
		"later parent":   {{ID: 1, Parent: 2, Trace: 1, Start: 2, End: 8}, good[0]},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTamperedDigestFailsTheRun: the pinned artifact digest is checked,
// so a wrong expectation fails an otherwise clean run.
func TestTamperedDigestFailsTheRun(t *testing.T) {
	cfg := shortConfig(t, "compile")
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := res.digests.Compile

	cfg.exp = &expectations{Compile: digest}
	if res, err = runWorkload(cfg); err != nil || !res.Correct {
		t.Fatalf("the run's own digest failed it: %v %v", err, res.Problems)
	}
	tampered := []byte(digest)
	tampered[0] ^= 1
	cfg.exp = &expectations{Compile: string(tampered)}
	if res, err = runWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatal("a tampered digest passed")
	}
}

// TestWrongInterpreterResultFailsTheRun: simulation results are checked
// against the interpreter's, so a wrong reference fails the run.
func TestWrongInterpreterResultFailsTheRun(t *testing.T) {
	refs, err := interpResults(shortPalette)
	if err != nil {
		t.Fatal(err)
	}
	refs[shortPalette[0]]++
	cfg := shortConfig(t, "serve")
	cfg.refs = refs
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatal("a wrong interpreter result passed")
	}
}

// TestSimulationOracle: a faulted idempotence or checkpoint-and-log run
// must recover to the interpreter's result; only a faulted TMR run may
// report a machine error instead, and none may return a wrong result
// silently.
func TestSimulationOracle(t *testing.T) {
	fault := []server.InjectionSpec{{Model: "reg", Step: 100, Mask: 1}}
	for _, c := range []struct {
		scheme string
		faults []server.InjectionSpec
		got    server.SimulateReport
		ok     bool
	}{
		{"none", nil, server.SimulateReport{Result: 7}, true},
		{"none", nil, server.SimulateReport{Result: 8}, false},
		{"idem", nil, server.SimulateReport{Result: 7, Error: "boom"}, false},
		{"none", fault, server.SimulateReport{Result: 8}, true},
		{"dmr", fault, server.SimulateReport{Error: "fault detected"}, true},
		{"idem", fault, server.SimulateReport{Result: 7}, true},
		{"idem", fault, server.SimulateReport{Result: 8}, false},
		{"idem", fault, server.SimulateReport{Error: "boom"}, false},
		{"cl", fault, server.SimulateReport{Error: "boom"}, false},
		{"tmr", fault, server.SimulateReport{Error: "divide by zero"}, true},
		{"tmr", fault, server.SimulateReport{Result: 8}, false},
	} {
		req := &server.SimulateRequest{Workload: "mcf", Scheme: c.scheme, Injections: c.faults}
		if err := checkSimulation(req, &c.got, 7); (err == nil) != c.ok {
			t.Errorf("%s with %d faults, %+v: error %v, want ok %t", c.scheme, len(c.faults), c.got, err, c.ok)
		}
	}
}

// TestVariantsMatchRequests: each compile variant's idemd request
// options select the same build as its library options.
func TestVariantsMatchRequests(t *testing.T) {
	if err := checkVariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClassP50 pins class_p50_ms: each class's median of latencies
// scaled by the host speed, averaged geometrically over the ops.
func TestClassP50(t *testing.T) {
	ms := time.Millisecond
	o := &observation{
		lat:     []sample{{"a", ms, 0}, {"a", ms, 0}, {"a", 5 * ms, 0}, {"b", 200 * ms, 1}},
		windows: []window{{3, time.Second}, {1, time.Second}},
		speeds:  []float64{1, 1, 1, 0}, // window 1 ran at half speed
	}
	want := math.Pow(100, 0.25) // three ops at a's median of 1 ms, one at 200 ms × 0.5
	if got := endToEndMetrics(o)["class_p50_ms"].Value; math.Abs(got-want) > 1e-9 {
		t.Fatalf("class_p50_ms = %g, want %g", got, want)
	}
}

// TestCalibrate: the calibration job runs and reports a plausible speed.
func TestCalibrate(t *testing.T) {
	if s := calibrate(); !(s > 0.05 && s < 20) {
		t.Fatalf("host speed %g", s)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(range(1, 11), n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
}
