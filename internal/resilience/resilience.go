// Package resilience implements safe re-execution over the idemd API:
// seeded-deterministic retries with exponential backoff and
// server-scheduled Retry-After.
//
// Retries are justified by the same property the paper exploits at
// region granularity: idempotence. Every /v1/* response is a
// deterministic function of the request body (content-keyed compiles,
// seeded simulations), so re-executing a failed request cannot change
// the answer — at worst it wastes work, never correctness. idemload's
// -repeat and -expect-digest make that claim checkable end to end.
//
// Determinism: all jitter and backoff decisions derive from a splitmix64
// stream seeded by (Policy.Seed, request key, attempt), so a campaign
// replayed with the same seed makes the same scheduling decisions.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// RetryAfterError marks an attempt outcome that carries the server's own
// backoff schedule (a Retry-After header on a 429 shed). Attempts wrap
// their error (or return it alone for a header-bearing status) so Do
// sleeps exactly what the server asked instead of its jittered curve.
type RetryAfterError struct {
	// After is the server-requested delay before the next attempt.
	After time.Duration
	// Err is the underlying failure, if any (nil for a bare 429).
	Err error
}

func (e *RetryAfterError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("retry after %s: %v", e.After, e.Err)
	}
	return fmt.Sprintf("retry after %s", e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// ParseRetryAfter parses a Retry-After header value in its
// integer-seconds form (the only form idemd emits). ok is false for
// empty or unparseable values — including the HTTP-date form, which
// callers fall back from onto their own backoff.
func ParseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	var sec int64
	for i := 0; i < len(v); i++ {
		d := v[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		sec = sec*10 + int64(d-'0')
		if sec > 3600 {
			// Clamp pathological hints to an hour; a server asking for
			// more is effectively saying "go away", which the retry
			// budget will conclude on its own.
			sec = 3600
		}
	}
	return time.Duration(sec) * time.Second, true
}

// The first retry waits about baseBackoff; each retry doubles the delay
// up to maxBackoff.
const (
	baseBackoff = 5 * time.Millisecond
	maxBackoff  = time.Second
)

// Policy configures a Client. The zero value means "no resilience":
// one attempt.
type Policy struct {
	// MaxRetries is the number of re-executions after the first attempt
	// (0 = fail on first error).
	MaxRetries int
	// Seed drives the deterministic jitter stream.
	Seed uint64
}

// Attempt performs one execution of a request and reports the HTTP
// status, response body and transport error.
type Attempt func(ctx context.Context) (status int, body []byte, err error)

// Result is the final outcome of a resilient request.
type Result struct {
	Status int
	Body   []byte
	// Attempts is how many executions ran.
	Attempts int
}

// Counters aggregates what a Client did, all atomically updated so a
// load generator can snapshot them mid-run.
type Counters struct {
	attempts          atomic.Int64
	retries           atomic.Int64
	failures          atomic.Int64
	retryAfterHonored atomic.Int64
}

// Snapshot is a point-in-time copy of a Client's counters.
type Snapshot struct {
	Attempts int64 `json:"attempts"`
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
	// RetryAfterHonored counts retry sleeps whose duration came from a
	// server Retry-After hint instead of the jittered backoff curve.
	RetryAfterHonored int64 `json:"retry_after_honored"`
}

// Client executes Attempts under a Policy. Safe for concurrent use.
type Client struct {
	policy   Policy
	counters Counters
	// sleep is swappable for tests; it must honor ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient builds a client for the policy.
func NewClient(p Policy) *Client {
	return &Client{policy: p, sleep: sleepCtx}
}

// Counters snapshots the client's activity.
func (c *Client) Counters() Snapshot {
	return Snapshot{
		Attempts:          c.counters.attempts.Load(),
		Retries:           c.counters.retries.Load(),
		Failures:          c.counters.failures.Load(),
		RetryAfterHonored: c.counters.retryAfterHonored.Load(),
	}
}

// retryable reports whether a round outcome justifies re-execution:
// transport errors (the response may never have left the server — but
// idempotence makes re-sending safe either way), 429 shed, and 5xx.
// Other 4xx are the caller's bug; re-execution cannot fix them.
func retryable(status int, err error) bool {
	if err != nil {
		return true
	}
	return status == 429 || status >= 500
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// backoff returns the delay before retry number try (1-based), with
// deterministic jitter in [d/2, d) drawn from the (seed, key, try)
// splitmix64 stream.
func (c *Client) backoff(key uint64, try int) time.Duration {
	d := baseBackoff << (try - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	x := mix(mix(c.policy.Seed^key) + uint64(try))
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + x%half)
}

// mix is one splitmix64 scramble step — the same generator idemload
// uses for its request mix, so seeded campaigns share one PRNG family.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Do executes attempt under the policy until success, a non-retryable
// response, the retry budget is exhausted, or ctx is done. key names the
// request for the deterministic jitter stream (idemload passes the
// request index).
func (c *Client) Do(ctx context.Context, key uint64, attempt Attempt) (Result, error) {
	var res Result
	for try := 0; ; try++ {
		c.counters.attempts.Add(1)
		status, body, err := attempt(ctx)
		res.Attempts++
		if err == nil && !retryable(status, err) {
			// Success, or a non-retryable response returned as-is.
			res.Status, res.Body = status, body
			return res, nil
		}
		if errors.Is(err, context.Canceled) {
			c.counters.failures.Add(1)
			return res, err
		}
		if try >= c.policy.MaxRetries {
			c.counters.failures.Add(1)
			// The last round's status/body are surfaced either way:
			// callers distinguishing "server said 429" from "transport
			// died" must not read a zero status just because the error
			// happens to be wrapped.
			res.Status, res.Body = status, body
			if err != nil {
				return res, fmt.Errorf("resilience: %d attempt(s) failed: %w", try+1, err)
			}
			return res, fmt.Errorf("resilience: %d attempt(s) failed: status %d", try+1, status)
		}
		c.counters.retries.Add(1)
		delay := c.backoff(key, try+1)
		var ra *RetryAfterError
		if errors.As(err, &ra) && ra.After > 0 {
			// The server scheduled the retry itself; its hint replaces
			// the guessed curve.
			delay = ra.After
			c.counters.retryAfterHonored.Add(1)
		}
		if err := c.sleep(ctx, delay); err != nil {
			c.counters.failures.Add(1)
			return res, err
		}
	}
}
