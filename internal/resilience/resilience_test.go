package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// instantClient returns a client whose backoff sleeps don't really
// sleep, so retry-loop tests run in microseconds.
func instantClient(p Policy) *Client {
	c := NewClient(p)
	c.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	return c
}

func TestRetryAfterTransientFailure(t *testing.T) {
	var calls atomic.Int64
	attempt := func(context.Context) (int, []byte, error) {
		if calls.Add(1) < 3 {
			return 500, nil, nil
		}
		return 200, []byte("ok"), nil
	}
	c := instantClient(Policy{MaxRetries: 4, Seed: 1})
	res, err := c.Do(context.Background(), 7, attempt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "ok" {
		t.Fatalf("got %d %q", res.Status, res.Body)
	}
	if got := c.Counters().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	attempt := func(context.Context) (int, []byte, error) {
		return 0, nil, errors.New("connection reset")
	}
	c := instantClient(Policy{MaxRetries: 3, Seed: 1})
	_, err := c.Do(context.Background(), 1, attempt)
	if err == nil {
		t.Fatal("want permanent failure")
	}
	s := c.Counters()
	if s.Attempts != 4 || s.Failures != 1 {
		t.Errorf("attempts=%d failures=%d, want 4/1", s.Attempts, s.Failures)
	}
}

func TestNonRetryable4xxReturnsImmediately(t *testing.T) {
	var calls atomic.Int64
	attempt := func(context.Context) (int, []byte, error) {
		calls.Add(1)
		return 400, []byte(`{"error":"bad"}`), nil
	}
	c := instantClient(Policy{MaxRetries: 5, Seed: 1})
	res, err := c.Do(context.Background(), 1, attempt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 400 || calls.Load() != 1 {
		t.Errorf("status=%d calls=%d, want 400 after exactly 1 call", res.Status, calls.Load())
	}
}

func TestDeterministicBackoff(t *testing.T) {
	p := Policy{MaxRetries: 5, Seed: 42}
	a, b := NewClient(p), NewClient(p)
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
	c := NewClient(Policy{MaxRetries: 5, Seed: 43})
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
	attempt := func(context.Context) (int, []byte, error) {
		if calls.Add(1) == 2 {
			cancel()
		}
		return 500, nil, nil
	}
	c := NewClient(Policy{MaxRetries: 100, Seed: 1})
	_, err := c.Do(ctx, 1, attempt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() > 3 {
		t.Errorf("kept retrying after cancellation: %d calls", calls.Load())
	}
}

func TestRetryAfterHintHonored(t *testing.T) {
	var calls atomic.Int64
	attempt := func(context.Context) (int, []byte, error) {
		if calls.Add(1) == 1 {
			return 429, []byte("shed"), &RetryAfterError{After: 2 * time.Second}
		}
		return 200, []byte("ok"), nil
	}
	c := NewClient(Policy{MaxRetries: 2, Seed: 3})
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	res, err := c.Do(context.Background(), 11, attempt)
	if err != nil || res.Status != 200 {
		t.Fatalf("got %v status %d", err, res.Status)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want exactly the server's 2s hint", slept)
	}
	if got := c.Counters().RetryAfterHonored; got != 1 {
		t.Errorf("retry_after_honored = %d, want 1", got)
	}
}

func TestExhaustedBudgetSurfacesStatusWithError(t *testing.T) {
	// A persistent 429 whose attempts carry an error (the RetryAfter
	// wrapper) must still surface the status: callers that distinguish
	// "server responded" from "transport died" depend on Status != 0
	// here.
	attempt := func(context.Context) (int, []byte, error) {
		return 429, []byte("shed"), &RetryAfterError{After: time.Millisecond}
	}
	c := instantClient(Policy{MaxRetries: 1, Seed: 5})
	res, err := c.Do(context.Background(), 13, attempt)
	if err == nil {
		t.Fatal("want exhausted-budget error")
	}
	if res.Status != 429 || string(res.Body) != "shed" {
		t.Fatalf("res = %d %q, want the last round's 429 response", res.Status, res.Body)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"1", time.Second, true},
		{"30", 30 * time.Second, true},
		{"0", 0, true},
		{"99999", time.Hour, true}, // clamped
		{"", 0, false},
		{"-1", 0, false},
		{"1.5", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false},
	} {
		got, ok := ParseRetryAfter(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseRetryAfter(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
