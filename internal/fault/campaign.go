// Campaign engine: parallel, seeded fault-injection campaigns over
// instrumented programs. Each run draws one injection from the enabled
// fault models using a PRNG derived from (campaign seed, run index),
// executes it on a private machine instance under the livelock watchdog,
// and classifies the outcome. Aggregates are computed in run order, so a
// campaign's JSON output is bit-for-bit reproducible from its seed for
// any worker count — and an interrupted campaign is recovered by running
// it again.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"idemproc/internal/codegen"
	"idemproc/internal/machine"
)

// DefaultSeed seeds campaigns that do not choose one; any fixed value
// keeps them reproducible.
const DefaultSeed = 0x1de12012

// Spec configures a campaign.
type Spec struct {
	Scheme Scheme
	Runs   int
	// Seed is the master PRNG seed; run i draws from PCG(Seed, i+1).
	Seed uint64
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Models is the enabled fault-model mix (default: register bit flips).
	Models []ModelKind
	// Args are the program arguments.
	Args []uint64
	// KeepRecords includes every per-run record in the result.
	KeepRecords bool
}

// Outcome classifies one injection run.
type Outcome string

const (
	// OutcomeVacuous: the injection never materialized (e.g. the step
	// fell beyond the faulted execution's end).
	OutcomeVacuous Outcome = "vacuous"
	// OutcomeBenign: the fault landed, was never detected, and the
	// result was still correct (masked by the program).
	OutcomeBenign Outcome = "benign"
	// OutcomeCorrected: detected and/or recovered, correct result.
	OutcomeCorrected Outcome = "corrected"
	// OutcomeSDC: silent data corruption — the run terminated normally
	// with a wrong result.
	OutcomeSDC Outcome = "sdc"
	// OutcomeDetectedHalt: fail-stop detection without recovery (DMR).
	OutcomeDetectedHalt Outcome = "detected-halt"
	// OutcomeLivelock: the watchdog fired (instruction budget or retry
	// bound); detected-unrecoverable by escalation.
	OutcomeLivelock Outcome = "livelock"
	// OutcomeCrash: the faulted run died on a machine error (invalid
	// address, division by zero) before any scheme check fired.
	OutcomeCrash Outcome = "crash"
)

// RunRecord is one completed injection run.
type RunRecord struct {
	Index     int       `json:"index"`
	Injection Injection `json:"injection"`
	Outcome   Outcome   `json:"outcome"`
	// Detections/Recoveries mirror the machine counters.
	Detections int64 `json:"detections,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// DetectLatency is dynamic instructions from first fault to first
	// detection (-1 when either never happened).
	DetectLatency int64 `json:"detect_latency"`
	// ExtraPct is the dynamic-instruction inflation over the fault-free
	// reference (only meaningful for normally-terminated runs).
	ExtraPct float64 `json:"extra_pct"`
	Err      string  `json:"err,omitempty"`
}

// ModelStats aggregates outcomes per fault model.
type ModelStats struct {
	Runs      int `json:"runs"`
	Landed    int `json:"landed"`
	Benign    int `json:"benign"`
	Corrected int `json:"corrected"`
	SDC       int `json:"sdc"`
}

// CampaignResult aggregates a campaign. The legacy counters (Runs,
// Landed, Detected, Recovered, Correct, ExtraInstrPct) keep their
// historical meaning; the new fields carry the structured outcome
// taxonomy, rates and percentiles the experiment drivers consume.
type CampaignResult struct {
	Scheme string `json:"scheme"`
	Seed   uint64 `json:"seed"`
	// Runs is the number of injection runs; Landed counts runs where the
	// fault actually materialized.
	Runs   int `json:"runs"`
	Landed int `json:"landed"`
	// Detected counts runs with at least one detection; Recovered counts
	// runs that re-executed at least one region (or rolled back).
	Detected  int `json:"detected"`
	Recovered int `json:"recovered"`
	// Correct counts landed runs whose final result matched the
	// fault-free reference.
	Correct int `json:"correct"`
	// ExtraInstrPct is the mean dynamic-instruction inflation of landed
	// runs relative to the fault-free run (the re-execution cost).
	ExtraInstrPct float64 `json:"extra_instr_pct"`

	// Outcome taxonomy.
	Vacuous      int `json:"vacuous"`
	Benign       int `json:"benign"`
	Corrected    int `json:"corrected"`
	SDC          int `json:"sdc"`
	DetectedHalt int `json:"detected_halt"`
	Livelocks    int `json:"livelocks"`
	Crashes      int `json:"crashes"`

	// Rates over landed runs.
	SDCRate       float64 `json:"sdc_rate"`
	DetectionRate float64 `json:"detection_rate"`
	RecoveryRate  float64 `json:"recovery_rate"`

	// MeanDetectLatency is the mean instructions from fault to first
	// detection over runs where both happened.
	MeanDetectLatency float64 `json:"mean_detect_latency"`

	// Inflation percentiles over landed, normally-terminated runs.
	InflationP50 float64 `json:"inflation_p50"`
	InflationP90 float64 `json:"inflation_p90"`
	InflationP99 float64 `json:"inflation_p99"`

	ByModel map[string]*ModelStats `json:"by_model,omitempty"`

	Records []RunRecord `json:"records,omitempty"`
}

// RunCampaign executes spec against p: one fault-free reference run, then
// spec.Runs injection runs on a bounded worker pool. Each run's injection
// is drawn from PCG(spec.Seed, index+1), so results are reproducible for
// any worker count. Cancelling ctx stops new runs and returns ctx's
// error; running the campaign again reproduces it from run 0.
func RunCampaign(ctx context.Context, p *codegen.Program, spec Spec) (*CampaignResult, error) {
	if spec.Runs <= 0 {
		return nil, errors.New("fault: campaign needs at least one run")
	}
	if len(spec.Models) == 0 {
		spec.Models = []ModelKind{ModelRegisterBitFlip}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Runs {
		workers = spec.Runs
	}

	cfg := spec.Scheme.Config()
	ref := machine.New(p, cfg)
	want, err := ref.Run(spec.Args...)
	if err != nil {
		return nil, fmt.Errorf("fault: reference run: %w", err)
	}
	span := ref.Stats.DynInstrs
	env := Env{Span: span, MemWords: int64(p.MemWords), GlobalEnd: p.GlobalEnd}
	cfg.WatchdogRef = span

	// Each worker takes the next run index and writes only that run's
	// slot, as experiments.Engine.ForEach does, so aggregation in index
	// order is independent of the worker count.
	records := make([]RunRecord, spec.Runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= spec.Runs {
					return
				}
				records[i] = runOne(p, cfg, spec, env, span, want, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fault: campaign interrupted: %w", err)
	}
	return aggregate(spec, records), nil
}

// runOne executes injection run i.
func runOne(p *codegen.Program, cfg machine.Config, spec Spec, env Env, span int64, want uint64, i int) RunRecord {
	rng := rand.New(rand.NewPCG(spec.Seed, uint64(i)+1))
	kind := spec.Models[rng.IntN(len(spec.Models))]
	inj := sample(kind, rng, env)

	m := machine.New(p, cfg)
	Arm(m, inj)
	got, err := m.Run(spec.Args...)

	rec := RunRecord{
		Index:         i,
		Injection:     inj,
		Detections:    m.Stats.Detections,
		Recoveries:    m.Stats.Recoveries,
		DetectLatency: -1,
		ExtraPct:      100 * (float64(m.Stats.DynInstrs)/float64(span) - 1),
	}
	if m.Stats.FirstFaultStep >= 0 && m.Stats.FirstDetectStep >= m.Stats.FirstFaultStep {
		rec.DetectLatency = m.Stats.FirstDetectStep - m.Stats.FirstFaultStep
	}
	switch {
	case errors.Is(err, machine.ErrDetectedUnrecoverable):
		rec.Outcome = OutcomeDetectedHalt
	case errors.Is(err, machine.ErrLivelock):
		rec.Outcome = OutcomeLivelock
	case err != nil:
		rec.Outcome = OutcomeCrash
		rec.Err = err.Error()
	case m.Stats.Faults == 0:
		rec.Outcome = OutcomeVacuous
	case got != want:
		rec.Outcome = OutcomeSDC
	case m.Stats.Detections > 0:
		rec.Outcome = OutcomeCorrected
	default:
		rec.Outcome = OutcomeBenign
	}
	return rec
}

// aggregate folds records (in index order) into the campaign result.
func aggregate(spec Spec, records []RunRecord) *CampaignResult {
	res := &CampaignResult{
		Scheme:  spec.Scheme.String(),
		Seed:    spec.Seed,
		ByModel: map[string]*ModelStats{},
	}
	var extraSum float64
	var inflations []float64
	var latSum float64
	var latN int
	for _, r := range records {
		res.Runs++
		ms := res.ByModel[r.Injection.Model.String()]
		if ms == nil {
			ms = &ModelStats{}
			res.ByModel[r.Injection.Model.String()] = ms
		}
		ms.Runs++
		landed := r.Outcome != OutcomeVacuous
		if landed {
			res.Landed++
			ms.Landed++
		}
		if r.Detections > 0 || r.Outcome == OutcomeDetectedHalt {
			res.Detected++
		}
		if r.Recoveries > 0 {
			res.Recovered++
		}
		if r.DetectLatency >= 0 {
			latSum += float64(r.DetectLatency)
			latN++
		}
		switch r.Outcome {
		case OutcomeVacuous:
			res.Vacuous++
		case OutcomeBenign:
			res.Benign++
			res.Correct++
			ms.Benign++
		case OutcomeCorrected:
			res.Corrected++
			res.Correct++
			ms.Corrected++
		case OutcomeSDC:
			res.SDC++
			ms.SDC++
		case OutcomeDetectedHalt:
			res.DetectedHalt++
		case OutcomeLivelock:
			res.Livelocks++
		case OutcomeCrash:
			res.Crashes++
		}
		switch r.Outcome {
		case OutcomeBenign, OutcomeCorrected, OutcomeSDC:
			extraSum += r.ExtraPct
			inflations = append(inflations, r.ExtraPct)
		}
		if spec.KeepRecords {
			res.Records = append(res.Records, r)
		}
	}
	if len(inflations) > 0 {
		res.ExtraInstrPct = extraSum / float64(len(inflations))
		sort.Float64s(inflations)
		res.InflationP50 = percentile(inflations, 0.50)
		res.InflationP90 = percentile(inflations, 0.90)
		res.InflationP99 = percentile(inflations, 0.99)
	}
	if latN > 0 {
		res.MeanDetectLatency = latSum / float64(latN)
	}
	if res.Landed > 0 {
		res.SDCRate = float64(res.SDC) / float64(res.Landed)
		res.DetectionRate = float64(res.Detected) / float64(res.Landed)
		res.RecoveryRate = float64(res.Recovered) / float64(res.Landed)
	}
	return res
}

// percentile returns the nearest-rank p-quantile of sorted vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := int(p*float64(len(vals))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
