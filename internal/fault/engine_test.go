package fault

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// buildWorkload compiles a (shrunk) built-in workload for campaign tests.
func buildWorkload(t *testing.T, name string, idem bool) (*codegen.Program, []uint64) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	args := append([]uint64{}, w.Args...)
	if args[0] > 8 {
		args[0] = args[0] / 4
	}
	p, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, idem, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p, args
}

// campaign runs a register-flip campaign under DefaultSeed, the shape
// most recovery tests need.
func campaign(p *codegen.Program, s Scheme, runs int, args ...uint64) (*CampaignResult, error) {
	return RunCampaign(context.Background(), p, Spec{Scheme: s, Runs: runs, Seed: DefaultSeed, Args: args})
}

// TestCampaignReproducibleParallel runs a 200-run campaign on a built-in
// workload twice with the same seed and ≥4 workers and requires the two
// aggregate JSON documents (including every per-run record) to match
// bit for bit: per-run PRNG derivation makes results independent of
// worker scheduling.
func TestCampaignReproducibleParallel(t *testing.T) {
	p, args := buildWorkload(t, "blackscholes", true)
	ip := Apply(p, SchemeIdempotence)
	spec := Spec{
		Scheme:      SchemeIdempotence,
		Runs:        200,
		Seed:        12345,
		Workers:     8,
		Args:        args,
		KeepRecords: true,
	}
	a, err := RunCampaign(context.Background(), ip, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(context.Background(), ip, spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different campaigns:\n%s\n---\n%s", ja, jb)
	}
	if a.Landed < 100 {
		t.Fatalf("only %d of %d faults landed", a.Landed, a.Runs)
	}
	if a.Correct != a.Landed {
		t.Fatalf("%d of %d landed register flips gave wrong results", a.Landed-a.Correct, a.Landed)
	}
	if a.Seed != spec.Seed || a.Scheme != SchemeIdempotence.String() {
		t.Fatalf("result metadata wrong: %+v", a)
	}
}

// TestCampaignAllModelsOutcomes draws from every fault model under
// idempotence-based recovery. Faults inside the register/control-flow
// sphere must never produce an SDC, crash or livelock; memory faults are
// outside any register-redundancy sphere, so any outcome is legal there —
// they just must terminate and be classified.
func TestCampaignAllModelsOutcomes(t *testing.T) {
	ip := Apply(buildProgram(t, true), SchemeIdempotence)
	res, err := RunCampaign(context.Background(), ip, Spec{
		Scheme:      SchemeIdempotence,
		Runs:        240,
		Seed:        7,
		Workers:     6,
		Models:      AllModels(),
		Args:        []uint64{40},
		KeepRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	perModel := map[ModelKind]int{}
	for _, r := range res.Records {
		perModel[r.Injection.Model]++
		if r.Injection.Model == ModelMemoryWord {
			continue // outside the detection sphere: any classified outcome is fine
		}
		switch r.Outcome {
		case OutcomeVacuous, OutcomeBenign, OutcomeCorrected:
		default:
			t.Errorf("run %d (%v): outcome %v (err=%q) — in-sphere fault not contained",
				r.Index, r.Injection.Model, r.Outcome, r.Err)
		}
	}
	for _, k := range AllModels() {
		if perModel[k] == 0 {
			t.Errorf("model %v was never drawn in %d runs", k, res.Runs)
		}
	}
	if res.Detected == 0 || res.Recovered == 0 {
		t.Fatalf("campaign saw no detections/recoveries: %+v", res)
	}
	if res.MeanDetectLatency <= 0 {
		t.Fatalf("detection latency not aggregated: %+v", res)
	}
	if res.ByModel[ModelRegisterBitFlip.String()] == nil {
		t.Fatal("per-model aggregates missing")
	}
}

// TestNestedFaultRecovery injects a primary flip plus a second flip fired
// during the re-execution the first recovery starts. The idempotence
// scheme must absorb both (another detection, another re-execution) and
// still produce the fault-free result.
func TestNestedFaultRecovery(t *testing.T) {
	plain := machine.New(buildProgram(t, false), machine.Config{})
	want, err := plain.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	ip := Apply(buildProgram(t, true), SchemeIdempotence)
	cfg := machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence}

	doubleRecovered := 0
	for step := int64(5); step < 600; step += 13 {
		m := machine.New(ip, cfg)
		m.InjectFault(step, 9)
		m.InjectNestedFault(1, 1<<9)
		got, err := m.Run(40)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if m.Stats.Faults == 0 {
			continue
		}
		if got != want {
			t.Fatalf("step %d: got %d want %d (faults=%d recoveries=%d)",
				step, got, want, m.Stats.Faults, m.Stats.Recoveries)
		}
		if m.Stats.Faults >= 2 && m.Stats.Recoveries >= 2 {
			doubleRecovered++
		}
	}
	if doubleRecovered == 0 {
		t.Fatal("no run ever recovered from a nested fault")
	}
	t.Logf("%d runs recovered from recovery-time faults", doubleRecovered)
}

// TestNestedFaultStormEscalatesToLivelock schedules a fresh fault after
// every recovery so no re-execution can complete cleanly. The bounded
// retry counter must escalate to ErrLivelock instead of re-executing
// forever. (No instruction-budget watchdog is configured, so only the
// retry bound can stop the storm.)
func TestNestedFaultStormEscalatesToLivelock(t *testing.T) {
	ip := Apply(buildProgram(t, true), SchemeIdempotence)
	cfg := machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence}
	livelocks := 0
	for step := int64(5); step < 600; step += 13 {
		m := machine.New(ip, cfg)
		m.InjectFault(step, 9)
		// More nested faults than the machine's 64-retry bound.
		for k := int64(1); k <= 100; k++ {
			m.InjectNestedFault(k, 1<<9)
		}
		_, err := m.Run(40)
		if err == nil {
			continue // storm never caught fire at this placement
		}
		if !errors.Is(err, machine.ErrLivelock) {
			t.Fatalf("step %d: unexpected error %v", step, err)
		}
		livelocks++
		if m.Stats.DynInstrs > 200_000 {
			t.Fatalf("step %d: retry bound fired far too late (%d instrs)", step, m.Stats.DynInstrs)
		}
	}
	if livelocks == 0 {
		t.Fatal("no nested-fault storm ever escalated to ErrLivelock")
	}
	t.Logf("%d storms escalated to ErrLivelock", livelocks)
}

// TestCampaignCancellation cancels a running campaign and checks that it
// returns the context error, and that running the campaign again — the
// way to recover an interrupted one — matches an uninterrupted run.
func TestCampaignCancellation(t *testing.T) {
	p, args := buildWorkload(t, "canneal", true)
	ip := Apply(p, SchemeIdempotence)
	spec := Spec{
		Scheme:      SchemeIdempotence,
		Runs:        64,
		Seed:        5,
		Workers:     4,
		Args:        args,
		KeepRecords: true,
	}

	baseline, err := RunCampaign(context.Background(), ip, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(baseline)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	res, err := RunCampaign(ctx, ip, spec)
	if err == nil {
		// The campaign beat the timer; cancellation path not exercised,
		// but the result must still match the baseline.
		if got, _ := json.Marshal(res); string(got) != string(want) {
			t.Fatal("uncancelled rerun differs from baseline")
		}
		t.Skip("campaign finished before cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	rerun, err := RunCampaign(context.Background(), ip, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(rerun); string(got) != string(want) {
		t.Fatalf("rerun after cancel differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

// TestParseModels covers the model-mix parser.
func TestParseModels(t *testing.T) {
	ms, err := ParseModels("reg, mem,cf")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0] != ModelRegisterBitFlip || ms[1] != ModelMemoryWord || ms[2] != ModelControlFlow {
		t.Fatalf("ParseModels: %v", ms)
	}
	if ms, err = ParseModels("all"); err != nil || len(ms) != int(numModels) {
		t.Fatalf("ParseModels(all): %v %v", ms, err)
	}
	if _, err := ParseModels("bogus"); err == nil {
		t.Fatal("bogus model accepted")
	}
	var k ModelKind
	if err := k.UnmarshalText([]byte("burst")); err != nil || k != ModelRegisterBurst {
		t.Fatalf("round trip: %v %v", k, err)
	}
}
