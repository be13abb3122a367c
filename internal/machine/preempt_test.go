package machine

import (
	"context"
	"errors"
	"testing"
	"time"

	"idemproc/internal/isa"
)

// longLoop is a store/load loop with a huge trip count, the same shape
// the zero-alloc guard uses: long enough that a run only ends by
// preemption (or a deliberately bounded trip count).
func longLoop(trips int64) []isa.Instr {
	return []isa.Instr{
		{Op: isa.MOVI, Rd: isa.R1, Imm: 8},
		{Op: isa.MOVI, Rd: isa.R2, Imm: trips},
		{Op: isa.MARK},
		{Op: isa.LDR, Rd: isa.R3, Rs1: isa.R1},
		{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R3, Imm: 1},
		{Op: isa.STR, Rs1: isa.R1, Rs2: isa.R3},
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		{Op: isa.CBNZ, Rs1: isa.R2, Imm: 2},
		{Op: isa.HALT},
	}
}

// TestPreemptBoundsInstructions pins the preemption budget: with the
// bound context already canceled, Run must stop at the first poll,
// exactly PreemptEvery dynamic instructions in — the documented worst
// case — instead of running the workload to completion.
func TestPreemptBoundsInstructions(t *testing.T) {
	const stride = 512
	p := rawProgram(longLoop(100_000_000)...)
	m := New(p, Config{BufferStores: true, PreemptEvery: stride})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.BindContext(ctx)

	_, err := m.Run()
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("Run = %v, want ErrPreempted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("preemption error %v does not wrap context.Canceled", err)
	}
	if got := m.Stats.DynInstrs; got != stride {
		t.Errorf("executed %d instructions after cancellation, want the poll stride %d", got, stride)
	}
}

// TestPreemptDeadline: a context deadline preempts too, and the error
// wraps DeadlineExceeded so the service maps it to 503.
func TestPreemptDeadline(t *testing.T) {
	p := rawProgram(longLoop(100_000_000)...)
	m := New(p, Config{BufferStores: true, PreemptEvery: 1024})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	m.BindContext(ctx)

	_, err := m.Run()
	if !errors.Is(err, ErrPreempted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want ErrPreempted wrapping DeadlineExceeded", err)
	}
	if m.Stats.DynInstrs >= 100_000_000 {
		t.Error("machine ran the workload to completion despite the deadline")
	}
}

// TestPreemptAsyncCancel cancels from another goroutine mid-run (the
// -race configuration of the real server path) and checks the run stops
// early with the right sentinel.
func TestPreemptAsyncCancel(t *testing.T) {
	const trips = 400_000_000
	p := rawProgram(longLoop(trips)...)
	m := New(p, Config{BufferStores: true, PreemptEvery: 4096, MaxSteps: 10 * trips})
	ctx, cancel := context.WithCancel(context.Background())
	m.BindContext(ctx)

	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := m.Run()
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("Run = %v, want ErrPreempted", err)
	}
	if m.Stats.DynInstrs >= 5*trips {
		t.Errorf("executed %d instructions, preemption did not bound the run", m.Stats.DynInstrs)
	}
}

// TestPreemptDisarmed: a never-canceled binding (and an explicit disarm)
// leaves execution untouched — the program runs to HALT with the same
// result as an unbound machine.
func TestPreemptDisarmed(t *testing.T) {
	prog := longLoop(2_000)

	ref := New(rawProgram(prog...), Config{BufferStores: true})
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	m := New(rawProgram(prog...), Config{BufferStores: true, PreemptEvery: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.BindContext(ctx)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("bound but uncanceled run: %v", err)
	}
	if got != want || m.Stats.DynInstrs != ref.Stats.DynInstrs {
		t.Errorf("bound run diverged: r0 %d vs %d, instrs %d vs %d",
			got, want, m.Stats.DynInstrs, ref.Stats.DynInstrs)
	}

	// Disarm: Background's Done() is nil, so the poll switches off.
	m2 := New(rawProgram(prog...), Config{BufferStores: true})
	m2.BindContext(ctx)
	m2.BindContext(context.Background())
	if _, err := m2.Run(); err != nil {
		t.Fatalf("disarmed run: %v", err)
	}
}

// TestPreemptSurvivesReset mirrors the injection contract: Reset keeps
// the binding and restarts the poll counter from zero.
func TestPreemptSurvivesReset(t *testing.T) {
	const stride = 256
	p := rawProgram(longLoop(100_000_000)...)
	m := New(p, Config{BufferStores: true, PreemptEvery: stride})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.BindContext(ctx)
	m.Reset()

	_, err := m.Run()
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("Run after Reset = %v, want ErrPreempted", err)
	}
	if got := m.Stats.DynInstrs; got > stride {
		t.Errorf("executed %d instructions after Reset+cancel, budget is %d", got, stride)
	}
}
