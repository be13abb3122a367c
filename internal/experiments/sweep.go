package experiments

import (
	"fmt"
	"strings"

	"idemproc/internal/workloads"
)

// SweepPoint is one configuration of the §6.2 region-size trade-off: the
// paper observes that "optimal path length depends on a variety of
// factors" — longer regions amortize live-in preservation but raise
// re-execution cost and require longer detection-latency tolerance.
type SweepPoint struct {
	// MaxRegionSize is the static cap (0 = unbounded, the paper's
	// default).
	MaxRegionSize int
	// AvgPathLen is the measured dynamic path length.
	AvgPathLen float64
	// TimeOvhPct is the fault-free execution-time overhead vs the
	// conventional binary.
	TimeOvhPct float64
	// ReexecCostPct is the average re-execution penalty of one recovery,
	// as a percentage of total fault-free cycles per 100 faults (a proxy
	// for recovery cost at a given fault rate).
	ReexecCostPct float64
}

// RegionSizeSweep measures the trade-off curve for one workload: the
// conventional baseline and each size are units on the engine's pool.
func (e *Engine) RegionSizeSweep(w workloads.Workload, sizes []int) ([]SweepPoint, error) {
	confs := []conf{{mo: conventional()}}
	for _, size := range sizes {
		mo := idempotent()
		mo.Core.MaxRegionSize = size
		confs = append(confs, conf{mo: mo, cfg: trackPaths})
	}
	runs, err := e.simulate([]workloads.Workload{w}, confs...)
	if err != nil {
		return nil, err
	}
	baseCycles := float64(runs[0][0].Cycles)
	out := make([]SweepPoint, len(sizes))
	for i, size := range sizes {
		r := &runs[0][i+1]
		out[i] = SweepPoint{
			MaxRegionSize: size,
			AvgPathLen:    r.AvgPathLen(),
			TimeOvhPct:    100 * (float64(r.Cycles)/baseCycles - 1),
		}
		// Re-execution cost proxy: the average dynamic path length is the
		// expected re-executed instruction count per recovery (uniform
		// failure point over a path re-executes half of it on average,
		// but detection occurs at the end of the region in the worst
		// case; use the full path as the conservative estimate).
		out[i].ReexecCostPct = 100 * 100 * out[i].AvgPathLen / float64(r.DynInstrs)
	}
	return out, nil
}

// FormatSweep renders the trade-off curve.
func FormatSweep(name string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Region-size sweep for %s (§6.2 trade-off)\n", name)
	fmt.Fprintf(&b, "%10s %14s %12s %22s\n", "max size", "avg path len", "time ovh", "reexec cost/100 faults")
	for _, p := range pts {
		size := fmt.Sprint(p.MaxRegionSize)
		if p.MaxRegionSize == 0 {
			size = "∞"
		}
		fmt.Fprintf(&b, "%10s %14.1f %11.1f%% %21.3f%%\n", size, p.AvgPathLen, p.TimeOvhPct, p.ReexecCostPct)
	}
	b.WriteString("(longer regions amortize boundary costs; shorter regions bound re-execution and detection latency)\n")
	return b.String()
}
