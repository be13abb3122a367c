package machine

import (
	"errors"
	"math"
	"testing"
)

// spinSrc is a tight counted loop with no memory traffic: a corrupted
// counter loops ~2^63 iterations instead of n.
const spinSrc = `
func @spin(i64 %n) i64 {
e:
  br l
l:
  %i = phi [e: 0], [l: %i2]
  %acc = phi [e: 0], [l: %acc2]
  %acc2 = add %acc, %i
  %i2 = add %i, 1
  %c = lt %i2, %n
  condbr %c, l, d
d:
  ret %acc2
}
`

// TestWatchdogCatchesCorruptedLoopCounter injects sign-bit flips into an
// unprotected binary. When the flip lands on the loop counter the loop
// bound is pushed ~2^63 iterations away; the watchdog must terminate the
// run with ErrLivelock after a small multiple of the fault-free
// reference, instead of spinning to the 500M-step generic limit.
func TestWatchdogCatchesCorruptedLoopCounter(t *testing.T) {
	p := compile(t, spinSrc, "spin", false)
	ref := New(p, Config{})
	if _, err := ref.Run(64); err != nil {
		t.Fatal(err)
	}
	span := ref.Stats.DynInstrs
	// Half the reference under the 16x factor is an 8x budget.
	wdRef := span / 2
	budget := wdRef*watchdogFactor + watchdogSlack

	livelocks := 0
	for step := int64(3); step < span-5; step += 2 {
		m := New(p, Config{WatchdogRef: wdRef})
		m.InjectFaultMask(step, 1<<63)
		_, err := m.Run(64)
		if err == nil {
			continue // flip was benign for the control flow
		}
		if !errors.Is(err, ErrLivelock) {
			t.Fatalf("step %d: unexpected error %v", step, err)
		}
		livelocks++
		// The watchdog fires on the first instruction past the budget.
		if m.Stats.DynInstrs != budget+1 {
			t.Fatalf("step %d: watchdog fired at %d dyn instrs, want budget %d + 1", step, m.Stats.DynInstrs, budget)
		}
	}
	if livelocks == 0 {
		t.Fatal("no sign-bit flip ever produced a livelock; watchdog untested")
	}
	t.Logf("watchdog terminated %d livelocked runs", livelocks)
}

// TestWatchdogQuietOnCleanRuns ensures the watchdog never fires on a
// fault-free execution, including under recovery instrumentation configs.
func TestWatchdogQuietOnCleanRuns(t *testing.T) {
	p := compile(t, spinSrc, "spin", true)
	ref := New(p, Config{BufferStores: true, Recovery: RecoverIdempotence})
	want, err := ref.Run(64)
	if err != nil {
		t.Fatal(err)
	}
	// An eighth of the reference under the 16x factor is a 2x budget.
	m := New(p, Config{BufferStores: true, Recovery: RecoverIdempotence,
		WatchdogRef: ref.Stats.DynInstrs / 8})
	got, err := m.Run(64)
	if err != nil {
		t.Fatalf("watchdog fired on a clean run: %v", err)
	}
	if got != want {
		t.Fatalf("got %d, want %d", got, want)
	}

	// A reference too large for the budget to fit in int64, which a
	// /v1/simulate request may send, saturates the budget instead of
	// wrapping it to a small one: 2^60+1 wraps to 4,112 instructions.
	want, err = New(p, Config{BufferStores: true, Recovery: RecoverIdempotence}).Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, wdRef := range []int64{1<<60 + 1, math.MaxInt64} {
		m := New(p, Config{BufferStores: true, Recovery: RecoverIdempotence, WatchdogRef: wdRef})
		got, err := m.Run(1000)
		if err != nil || got != want {
			t.Fatalf("WatchdogRef %d: got %d, %v; want %d after %d instructions", wdRef, got, err, want, m.Stats.DynInstrs)
		}
	}
}

// TestMemFaultCorruptsWord checks the memory-word fault model end to end
// on an unprotected binary: flipping a data word before it is read must
// change the (unchecked) result.
func TestMemFaultCorruptsWord(t *testing.T) {
	src := `
global @data [4] = {10, 20, 30, 40}

func @main() i64 {
e:
  %g = global @data
  %p = add %g, 2
  %x = load %p
  ret %x
}
`
	p := compile(t, src, "main", false)
	ref := New(p, Config{})
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want != 30 {
		t.Fatalf("reference = %d, want 30", want)
	}
	m := New(p, Config{})
	m.InjectMemFault(0, p.GlobalBase["data"]+2, 1<<4)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want^(1<<4) {
		t.Fatalf("memory fault: got %d, want %d", got, want^(1<<4))
	}
	if m.Stats.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", m.Stats.Faults)
	}
	if m.Stats.FirstFaultStep < 0 {
		t.Fatal("FirstFaultStep not recorded")
	}
}

// TestBoundaryFaultFiresAfterMark verifies the boundary model's
// arm→prime→fire sequence on an idempotent binary: the fault counter
// increments only once a MARK has executed past the arming step.
func TestBoundaryFaultFiresAfterMark(t *testing.T) {
	p := compile(t, spinSrc, "spin", true)
	ref := New(p, Config{BufferStores: true, Recovery: RecoverIdempotence})
	want, err := ref.Run(64)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Marks == 0 {
		t.Skip("idempotent spin binary has no dynamic MARKs")
	}
	m := New(p, Config{BufferStores: true, Recovery: RecoverIdempotence,
		WatchdogRef: ref.Stats.DynInstrs})
	m.InjectBoundaryFault(3, 1<<7)
	got, err := m.Run(64)
	if err != nil {
		t.Fatalf("boundary fault: %v", err)
	}
	if m.Stats.Faults == 0 {
		t.Fatal("boundary fault never fired despite dynamic MARKs")
	}
	if got != want {
		t.Fatalf("boundary fault not recovered: got %d, want %d (detections=%d recoveries=%d)",
			got, want, m.Stats.Detections, m.Stats.Recoveries)
	}
}
