package experiments

import (
	"context"
	"fmt"
	"strings"

	"idemproc/internal/fault"
	"idemproc/internal/workloads"
)

// ---------------------------------------------------------------------
// Resilience table (§6.3): randomized fault-injection campaigns per
// recovery scheme, consuming the structured results of the campaign
// engine (sdc rate, detection/recovery rates, detection latency,
// re-execution inflation, livelocks).

// ResilienceRow is one (workload, scheme) campaign summary.
type ResilienceRow struct {
	Name   string          `json:"name"`
	Suite  workloads.Suite `json:"suite"`
	Scheme string          `json:"scheme"`

	Runs   int `json:"runs"`
	Landed int `json:"landed"`

	SDCRate       float64 `json:"sdc_rate"`
	DetectionRate float64 `json:"detection_rate"`
	RecoveryRate  float64 `json:"recovery_rate"`

	// MeanDetectLatency is in dynamic instructions from fault to first
	// detection; InflationP90 is the 90th-percentile dynamic-instruction
	// inflation over the fault-free reference, in percent.
	MeanDetectLatency float64 `json:"mean_detect_latency"`
	InflationP90      float64 `json:"inflation_p90"`

	Livelocks int `json:"livelocks"`
	Crashes   int `json:"crashes"`
}

// ResilienceResult groups rows with per-scheme mean rates.
type ResilienceResult struct {
	Seed uint64          `json:"seed"`
	Runs int             `json:"runs"`
	Rows []ResilienceRow `json:"rows"`
	// MeanSDC/MeanRecovery map scheme name → mean rate across workloads.
	MeanSDC      map[string]float64 `json:"mean_sdc"`
	MeanRecovery map[string]float64 `json:"mean_recovery"`
}

// rowFromCampaign flattens a campaign aggregate into a table row.
func rowFromCampaign(name string, suite workloads.Suite, res *fault.CampaignResult) ResilienceRow {
	return ResilienceRow{
		Name: name, Suite: suite, Scheme: res.Scheme,
		Runs: res.Runs, Landed: res.Landed,
		SDCRate:           res.SDCRate,
		DetectionRate:     res.DetectionRate,
		RecoveryRate:      res.RecoveryRate,
		MeanDetectLatency: res.MeanDetectLatency,
		InflationP90:      res.InflationP90,
		Livelocks:         res.Livelocks,
		Crashes:           res.Crashes,
	}
}

// Resilience runs an all-models injection campaign of the given size for
// every workload under every recovery scheme. Campaigns are seeded, so
// two invocations with the same arguments produce identical tables.
//
// The (workload, scheme) loop stays serial: fault.RunCampaign already
// parallelizes its injection runs internally, so the engine's worker
// budget is passed down as the campaign pool width instead of nesting a
// second fan-out on top. Builds go through the shared compile cache.
func (e *Engine) Resilience(ctx context.Context, ws []workloads.Workload, runs int, seed uint64) (*ResilienceResult, error) {
	res := &ResilienceResult{
		Seed: seed, Runs: runs,
		MeanSDC:      map[string]float64{},
		MeanRecovery: map[string]float64{},
	}
	counts := map[string]int{}
	for _, w := range ws {
		for _, s := range fault.Schemes {
			p, _, err := e.Build(ctx, w, schemeBuild(s))
			if err != nil {
				return nil, err
			}
			cr, err := fault.RunCampaign(ctx, fault.Apply(p, s), fault.Spec{
				Scheme:  s,
				Runs:    runs,
				Seed:    seed,
				Workers: e.workers,
				Models:  fault.AllModels(),
				Args:    w.Args,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, s, err)
			}
			res.Rows = append(res.Rows, rowFromCampaign(w.Name, w.Suite, cr))
			res.MeanSDC[cr.Scheme] += cr.SDCRate
			res.MeanRecovery[cr.Scheme] += cr.RecoveryRate
			counts[cr.Scheme]++
		}
	}
	for k, n := range counts {
		res.MeanSDC[k] /= float64(n)
		res.MeanRecovery[k] /= float64(n)
	}
	return res, nil
}

// Format renders the resilience table.
func (r *ResilienceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience: randomized fault injection, %d runs/campaign, seed %d (all models)\n", r.Runs, r.Seed)
	fmt.Fprintf(&b, "%-16s %-9s %-20s %7s %7s %8s %8s %9s %9s %6s %6s\n",
		"benchmark", "suite", "scheme", "runs", "landed", "SDC", "detect", "recover", "lat", "p90", "lvlk")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-9s %-20s %7d %7d %7.1f%% %7.1f%% %8.1f%% %9.1f %5.2f%% %6d\n",
			row.Name, row.Suite, row.Scheme, row.Runs, row.Landed,
			100*row.SDCRate, 100*row.DetectionRate, 100*row.RecoveryRate,
			row.MeanDetectLatency, row.InflationP90, row.Livelocks)
	}
	for _, s := range fault.Schemes {
		k := s.String()
		fmt.Fprintf(&b, "%-16s %-9s %-20s %7s %7s %7.1f%% %7s %8.1f%%\n",
			"MEAN", "", k, "", "", 100*r.MeanSDC[k], "", 100*r.MeanRecovery[k])
	}
	fmt.Fprintf(&b, "(IDEMPOTENCE should recover what DMR merely detects, at a fraction of TMR/CL's overhead)\n")
	return b.String()
}
