package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"idemproc/internal/workloads"
)

// shrink returns w with its first argument divided by d, to keep
// campaign tests fast on small machines.
func shrink(w workloads.Workload, d uint64) workloads.Workload {
	args := append([]uint64(nil), w.Args...)
	if len(args) > 0 && args[0] > d {
		args[0] /= d
	}
	w.Args = args
	return w
}

func TestResilienceTable(t *testing.T) {
	ws := []workloads.Workload{shrink(subset(t, "blackscholes")[0], 4)}
	res, err := NewEngine(1).Resilience(context.Background(), ws, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one per scheme)", len(res.Rows))
	}
	var dmr, idem *ResilienceRow
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.Runs != 24 {
			t.Fatalf("%s: runs = %d", r.Scheme, r.Runs)
		}
		switch r.Scheme {
		case "DMR":
			dmr = r
		case "IDEMPOTENCE":
			idem = r
		}
	}
	if dmr == nil || idem == nil {
		t.Fatalf("missing DMR or IDEMPOTENCE row: %+v", res.Rows)
	}
	// DMR is detection-only: it must never recover anything.
	if dmr.RecoveryRate != 0 {
		t.Fatalf("DMR recovery rate = %f, want 0", dmr.RecoveryRate)
	}
	// Idempotence must not silently corrupt and must recover what it
	// detects (§6.3 of the paper).
	if idem.SDCRate > dmr.SDCRate {
		t.Fatalf("idempotence SDC rate %f exceeds DMR's %f", idem.SDCRate, dmr.SDCRate)
	}
	if idem.RecoveryRate < idem.DetectionRate {
		t.Fatalf("idempotence recovered %f < detected %f", idem.RecoveryRate, idem.DetectionRate)
	}
	if idem.Livelocks != 0 {
		t.Fatalf("idempotence campaign livelocked %d times", idem.Livelocks)
	}
	out := res.Format()
	for _, want := range []string{"IDEMPOTENCE", "CHECKPOINT-AND-LOG", "MEAN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format lacks %q:\n%s", want, out)
		}
	}

	// The table must be reproducible from its seed.
	again, err := NewEngine(1).Resilience(context.Background(), ws, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("resilience table not reproducible from seed")
	}
}
