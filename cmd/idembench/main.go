// Command idembench regenerates the paper's tables and figures over the
// workload suite and prints them as text tables. Every (workload,
// configuration) simulation is a unit on a worker pool with a shared
// compile cache (see docs/experiments.md), and output is byte-identical
// for any -workers value.
//
//	idembench -all                        # everything
//	idembench -all -workers 8 -timing     # parallel, with a stage breakdown
//	idembench -fig10 -fig12               # selected figures
//	idembench -fig4 -suite "SPEC INT"
//
// A failing figure does not abort the run: every other figure still
// prints, the error (naming the culprit workload) goes to stderr, and the
// exit status is nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"idemproc/internal/experiments"
	"idemproc/internal/fault"
	"idemproc/internal/workloads"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// figure is one runnable experiment: a flag name plus a driver returning
// the formatted table.
type figure struct {
	name string
	on   bool
	run  func(e *experiments.Engine) (string, error)
}

// realMain is main with injectable args and streams, so tests can assert
// on output bytes, error collection and exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all     = fs.Bool("all", false, "run every experiment")
		fig4    = fs.Bool("fig4", false, "Figure 4: limit study")
		fig8    = fs.Bool("fig8", false, "Figure 8: path length CDF")
		fig9    = fs.Bool("fig9", false, "Figure 9: constructed vs ideal paths")
		fig10   = fs.Bool("fig10", false, "Figure 10: compilation overheads")
		fig11   = fs.Bool("fig11", false, "Figure 11: recovery transforms")
		fig12   = fs.Bool("fig12", false, "Figure 12: recovery overheads")
		table2  = fs.Bool("table2", false, "Table 2: antidependence classification")
		chars   = fs.Bool("characteristics", false, "static region characteristics")
		ablate  = fs.Bool("ablations", false, "design-choice ablations")
		sweep   = fs.Bool("sweep", false, "region-size trade-off sweep (§6.2)")
		resil   = fs.Bool("resilience", false, "fault-injection resilience table (§6.3, see docs/faultengine.md)")
		rruns   = fs.Int("resilience-runs", 100, "injection runs per (workload, scheme) campaign")
		rseed   = fs.Uint64("resilience-seed", fault.DefaultSeed, "campaign seed (tables reproduce exactly from it)")
		suite   = fs.String("suite", "", "restrict to one suite (SPEC INT, SPEC FP, PARSEC)")
		bench   = fs.String("workload", "", "restrict to one workload by name")
		workers = fs.Int("workers", 0, "worker-pool width for build/run units (0 = GOMAXPROCS); output is identical for any value")
		timing  = fs.Bool("timing", false, "print a per-stage wall-time breakdown (compile vs simulate, cache hits)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ws := workloads.All()
	if *suite != "" {
		ws = workloads.BySuite(workloads.Suite(*suite))
		if len(ws) == 0 {
			fmt.Fprintf(stderr, "unknown suite %q\n", *suite)
			return 1
		}
	}
	if *bench != "" {
		w, ok := workloads.ByName(*bench)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *bench)
			return 1
		}
		ws = []workloads.Workload{w}
	}
	// The sweep is per-workload: it shows two representatives, or the
	// explicitly selected workload. -all skips it when the selection has
	// neither; an explicit -sweep reports that as its error.
	var sweepWs []workloads.Workload
	for _, w := range ws {
		if *bench != "" || w.Name == "gcc" || w.Name == "lbm" {
			sweepWs = append(sweepWs, w)
		}
	}

	figures := []figure{
		{"table2", *all || *table2, func(e *experiments.Engine) (string, error) {
			rows, err := e.Table2(ws)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable2(rows), nil
		}},
		{"fig4", *all || *fig4, func(e *experiments.Engine) (string, error) {
			res, err := e.Fig4(ws)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig8", *all || *fig8, func(e *experiments.Engine) (string, error) {
			rows, err := e.Fig8(ws)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig8(rows), nil
		}},
		{"fig9", *all || *fig9, func(e *experiments.Engine) (string, error) {
			res, err := e.Fig9(ws)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig10", *all || *fig10, func(e *experiments.Engine) (string, error) {
			res, err := e.Fig10(ws)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig11", *all || *fig11, func(e *experiments.Engine) (string, error) {
			return experiments.Fig11(), nil
		}},
		{"fig12", *all || *fig12, func(e *experiments.Engine) (string, error) {
			res, err := e.Fig12(ws)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"characteristics", *all || *chars, func(e *experiments.Engine) (string, error) {
			rows, err := e.Characteristics(ws)
			if err != nil {
				return "", err
			}
			return experiments.FormatCharacteristics(rows), nil
		}},
		{"ablations", *all || *ablate, runAblations(ws)},
		{"sweep", *sweep || (*all && len(sweepWs) > 0), runSweep(sweepWs)},
		// -resilience is opt-in only (not part of -all): campaigns run
		// 4 schemes × N injections per workload and dominate the runtime.
		{"resilience", *resil, func(e *experiments.Engine) (string, error) {
			res, err := e.Resilience(context.Background(), ws, *rruns, *rseed)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
	}

	e := experiments.NewEngine(*workers)
	ran := false
	type failure struct {
		name string
		err  error
	}
	var failures []failure
	for _, f := range figures {
		if !f.on {
			continue
		}
		ran = true
		out, err := f.run(e)
		if err != nil {
			// Collect and keep going: one broken workload/figure must not
			// discard every table that already computed.
			failures = append(failures, failure{f.name, err})
			continue
		}
		fmt.Fprintln(stdout, out)
	}

	if !ran {
		fs.Usage()
		return 2
	}
	if *timing {
		fmt.Fprintln(stdout, e.Timing().Format())
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stderr, "idembench: %s: %v\n", f.name, f.err)
		}
		fmt.Fprintf(stderr, "idembench: %d of %d requested experiments failed\n", len(failures), countOn(figures))
		return 1
	}
	return 0
}

func countOn(figures []figure) int {
	n := 0
	for _, f := range figures {
		if f.on {
			n++
		}
	}
	return n
}

// runAblations bundles the five design-choice ablations into one figure.
func runAblations(ws []workloads.Workload) func(e *experiments.Engine) (string, error) {
	return func(e *experiments.Engine) (string, error) {
		var b []byte
		appendTable := func(s string) { b = append(b, s...); b = append(b, '\n') }
		if rows, err := e.AblationLoopHeuristic(ws); err != nil {
			return "", err
		} else {
			appendTable(experiments.FormatAblation("Ablation: §4.3 loop heuristic (avg dynamic path length)", "heuristic on", "off", rows))
		}
		if rows, err := e.AblationUnroll(ws); err != nil {
			return "", err
		} else {
			appendTable(experiments.FormatAblation("Ablation: §5 loop unroll (avg dynamic path length)", "unroll on", "off", rows))
		}
		if rows, err := e.AblationRedElim(ws); err != nil {
			return "", err
		} else {
			appendTable(experiments.FormatAblation("Ablation: Fig. 5 redundancy elimination (cuts placed)", "redelim on", "off", rows))
		}
		if rows, err := e.AblationRegalloc(ws); err != nil {
			return "", err
		} else {
			appendTable(experiments.FormatAblation("Ablation: §4.4 allocation constraint (cycles)", "constrained", "relaxed", rows))
		}
		if rows, err := e.AblationPureCalls(ws); err != nil {
			return "", err
		} else {
			appendTable(experiments.FormatAblation("Ablation: pure-call extension (avg dynamic path length)", "pure-calls on", "off", rows))
		}
		// Trim the final extra newline: each table is printed with
		// Fprintln by the caller.
		if n := len(b); n > 0 && b[n-1] == '\n' {
			b = b[:n-1]
		}
		return string(b), nil
	}
}

// runSweep renders the §6.2 region-size sweep for each of ws.
func runSweep(ws []workloads.Workload) func(e *experiments.Engine) (string, error) {
	return func(e *experiments.Engine) (string, error) {
		if len(ws) == 0 {
			return "", errors.New("no representative workload in selection (use -workload)")
		}
		var out string
		for i, w := range ws {
			pts, err := e.RegionSizeSweep(w, []int{0, 128, 32, 8, 4})
			if err != nil {
				return "", err
			}
			if i > 0 {
				out += "\n"
			}
			out += experiments.FormatSweep(w.Name, pts)
		}
		// Trim trailing newline; the caller Fprintln's.
		if n := len(out); n > 0 && out[n-1] == '\n' {
			out = out[:n-1]
		}
		return out, nil
	}
}
