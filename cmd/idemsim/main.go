// Command idemsim runs compiled programs on the machine simulator, with
// optional fault injection and a choice of recovery scheme.
//
//	idemsim -workload mcf                       # conventional run + stats
//	idemsim -workload mcf -scheme idem          # idempotence-based recovery
//	idemsim -workload mcf -scheme idem -faults 25
//	idemsim -src prog.idc -args 100 -scheme cl
//
// Campaigns are parallel and seeded (see docs/faultengine.md): the same
// seed reproduces the same campaign, so an interrupted one is recovered
// by running it again.
//
//	idemsim -workload mcf -scheme idem -campaign 500 -seed 7 -models all \
//	        -workers 8 -json mcf.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/lang"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams, so tests can assert
// on output bytes and exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idemsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		srcPath  = fs.String("src", "", "idc source file")
		workload = fs.String("workload", "", "built-in workload name")
		argsStr  = fs.String("args", "", "comma-separated integer args to main (defaults to the workload's)")
		mem      = fs.Int("mem", 65536, "memory words")
		scheme   = fs.String("scheme", "none", "recovery scheme: none, dmr, tmr, cl, idem")
		faults   = fs.Int("faults", 0, "inject N single-bit faults spread over the execution")
		branches = fs.Int("branch-faults", 0, "inject N control-flow errors (wrong-direction branches)")
		campaign = fs.Int("campaign", 0, "run an N-injection campaign and report the aggregate")
		paths    = fs.Bool("paths", false, "report dynamic region path statistics")

		seed    = fs.Uint64("seed", fault.DefaultSeed, "campaign PRNG seed (campaigns replay exactly from it)")
		workers = fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
		models  = fs.String("models", "reg", "comma-separated campaign fault models: reg,burst,mem,cf,boundary,nested or 'all'")
		jsonOut = fs.String("json", "", "write the campaign aggregate as JSON to this file ('-' for stdout)")
		records = fs.Bool("records", false, "include per-run records in the JSON aggregate")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "idemsim:", err)
		return 1
	}

	var (
		src      string
		runArgs  []uint64
		memWords = *mem
	)
	switch {
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		src = w.Source
		runArgs = w.Args
		memWords = w.MemWords
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			return fail(err)
		}
		src = string(data)
	default:
		fs.Usage()
		return 2
	}
	if *argsStr != "" {
		runArgs = nil
		for _, f := range strings.Split(*argsStr, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fail(err)
			}
			runArgs = append(runArgs, v)
		}
	}

	var schemeID fault.Scheme
	hasScheme := *scheme != "none"
	if hasScheme {
		var ok bool
		if schemeID, ok = fault.ParseScheme(*scheme); !ok {
			return fail(fmt.Errorf("unknown scheme %q", *scheme))
		}
	}
	idem := hasScheme && schemeID.Idempotent()

	mod, err := lang.Compile(src)
	if err != nil {
		return fail(err)
	}
	p, _, err := codegen.CompileModule(mod, "main", memWords, idem, core.DefaultOptions())
	if err != nil {
		return fail(err)
	}
	var cfg machine.Config
	if hasScheme {
		p = fault.Apply(p, schemeID)
		cfg = schemeID.Config()
	}
	cfg.TrackPaths = *paths || idem

	if *campaign > 0 {
		if !hasScheme {
			return fail(fmt.Errorf("-campaign requires a -scheme"))
		}
		ms, err := fault.ParseModels(*models)
		if err != nil {
			return fail(err)
		}
		res, err := fault.RunCampaign(context.Background(), p, fault.Spec{
			Scheme:      schemeID,
			Runs:        *campaign,
			Seed:        *seed,
			Workers:     *workers,
			Models:      ms,
			Args:        runArgs,
			KeepRecords: *records,
		})
		if err != nil {
			return fail(err)
		}

		fmt.Fprintf(stdout, "campaign (%s): %d runs, %d landed, %d detected, %d recovered, %d correct\n",
			schemeID, res.Runs, res.Landed, res.Detected, res.Recovered, res.Correct)
		fmt.Fprintf(stdout, "outcomes: %d vacuous, %d benign, %d corrected, %d SDC, %d halted, %d livelock, %d crash\n",
			res.Vacuous, res.Benign, res.Corrected, res.SDC, res.DetectedHalt, res.Livelocks, res.Crashes)
		fmt.Fprintf(stdout, "rates: SDC %.2f%%, detection %.2f%%, recovery %.2f%%\n",
			100*res.SDCRate, 100*res.DetectionRate, 100*res.RecoveryRate)
		if res.MeanDetectLatency > 0 {
			fmt.Fprintf(stdout, "mean detection latency: %.1f dynamic instructions\n", res.MeanDetectLatency)
		}
		fmt.Fprintf(stdout, "mean re-execution cost: %.2f%% extra instructions (p50 %.2f%%, p90 %.2f%%, p99 %.2f%%)\n",
			res.ExtraInstrPct, res.InflationP50, res.InflationP90, res.InflationP99)
		for _, k := range fault.AllModels() {
			st, ok := res.ByModel[k.String()]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "  model %-8s %4d runs, %4d landed, %4d benign, %4d corrected, %4d SDC\n",
				k, st.Runs, st.Landed, st.Benign, st.Corrected, st.SDC)
		}

		if *jsonOut != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return fail(err)
			}
			data = append(data, '\n')
			if *jsonOut == "-" {
				stdout.Write(data)
			} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	// Fault-free dry run to size the injection campaigns (same config as
	// the real run: instrumented binaries need their scheme's machinery,
	// e.g. the checkpoint-log pointer).
	m := machine.New(p, cfg)
	if *faults > 0 || *branches > 0 {
		dry := machine.New(p, cfg)
		if _, err := dry.Run(runArgs...); err != nil {
			return fail(err)
		}
		span := dry.Stats.DynInstrs
		for i := 1; i <= *faults; i++ {
			step := span * int64(i) / int64(*faults+1)
			m.InjectFault(step, uint(i*13)%63+1)
		}
		for i := 1; i <= *branches; i++ {
			m.InjectControlFlowError(span * int64(i) / int64(*branches+1))
		}
	}

	ret, err := m.Run(runArgs...)
	if err != nil {
		return fail(err)
	}
	s := &m.Stats
	fmt.Fprintf(stdout, "result:        %d\n", int64(ret))
	fmt.Fprintf(stdout, "instructions:  %d\n", s.DynInstrs)
	fmt.Fprintf(stdout, "cycles:        %d (IPC %.2f)\n", s.Cycles, float64(s.DynInstrs)/float64(s.Cycles))
	fmt.Fprintf(stdout, "loads/stores:  %d / %d\n", s.Loads, s.Stores)
	fmt.Fprintf(stdout, "mispredicts:   %d\n", s.Mispredicts)
	if s.Marks > 0 {
		fmt.Fprintf(stdout, "region marks:  %d\n", s.Marks)
	}
	if *faults > 0 || *branches > 0 {
		fmt.Fprintf(stdout, "faults:        %d injected, %d detected, %d recoveries\n", s.Faults, s.Detections, s.Recoveries)
	}
	if cfg.TrackPaths {
		fmt.Fprintf(stdout, "dynamic paths: avg length %.1f\n", s.AvgPathLen())
	}
	return 0
}
