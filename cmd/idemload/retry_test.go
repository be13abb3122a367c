package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// instantRetrier returns a retrier whose backoff sleeps don't really
// sleep, so retry-loop tests run in microseconds.
func instantRetrier(retries int, seed uint64) *retrier {
	r := newRetrier(retries, seed)
	r.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	return r
}

func TestRetryAfterTransientFailure(t *testing.T) {
	var calls atomic.Int64
	send := func(context.Context) (int, []byte, error) {
		if calls.Add(1) < 3 {
			return 500, nil, nil
		}
		return 200, []byte("ok"), nil
	}
	r := instantRetrier(4, 1)
	status, body, err := r.do(context.Background(), 7, send)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 || string(body) != "ok" {
		t.Fatalf("got %d %q", status, body)
	}
	if got := r.retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	send := func(context.Context) (int, []byte, error) {
		return 0, nil, errors.New("connection reset")
	}
	r := instantRetrier(3, 1)
	if _, _, err := r.do(context.Background(), 1, send); err == nil {
		t.Fatal("want permanent failure")
	}
	if a, f := r.attempts.Load(), r.failures.Load(); a != 4 || f != 1 {
		t.Errorf("attempts=%d failures=%d, want 4/1", a, f)
	}
}

func TestNonRetryable4xxReturnsImmediately(t *testing.T) {
	var calls atomic.Int64
	send := func(context.Context) (int, []byte, error) {
		calls.Add(1)
		return 400, []byte(`{"error":"bad"}`), nil
	}
	r := instantRetrier(5, 1)
	status, _, err := r.do(context.Background(), 1, send)
	if err != nil {
		t.Fatal(err)
	}
	if status != 400 || calls.Load() != 1 {
		t.Errorf("status=%d calls=%d, want 400 after exactly 1 call", status, calls.Load())
	}
}

func TestDeterministicBackoff(t *testing.T) {
	a, b := newRetrier(5, 42), newRetrier(5, 42)
	for try := 1; try <= 10; try++ {
		da, db := a.backoff(9, try), b.backoff(9, try)
		if da != db {
			t.Fatalf("try %d: %v vs %v — backoff not seed-deterministic", try, da, db)
		}
		base := baseBackoff << (try - 1)
		if base > maxBackoff {
			base = maxBackoff
		}
		if da < base/2 || da >= base {
			t.Errorf("try %d: jittered delay %v outside [%v, %v)", try, da, base/2, base)
		}
	}
	// A different seed must produce a different schedule somewhere.
	c := newRetrier(5, 43)
	diff := false
	for try := 1; try <= 5; try++ {
		if a.backoff(9, try) != c.backoff(9, try) {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 42 and 43 produced identical jitter schedules")
	}
}

func TestContextCancellationStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	send := func(context.Context) (int, []byte, error) {
		if calls.Add(1) == 2 {
			cancel()
		}
		return 500, nil, nil
	}
	r := newRetrier(100, 1)
	_, _, err := r.do(ctx, 1, send)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() > 3 {
		t.Errorf("kept retrying after cancellation: %d calls", calls.Load())
	}
}

func TestExhaustedBudgetSurfacesStatusWithError(t *testing.T) {
	// A persistent 429 must surface the last round's status and body
	// with the error: callers that tell "server responded" from
	// "transport died" depend on status != 0 here.
	send := func(context.Context) (int, []byte, error) {
		return 429, []byte("shed"), nil
	}
	r := instantRetrier(1, 5)
	status, body, err := r.do(context.Background(), 13, send)
	if err == nil {
		t.Fatal("want exhausted-budget error")
	}
	if status != 429 || string(body) != "shed" {
		t.Fatalf("got %d %q, want the last round's 429 response", status, body)
	}
}
