// Safe re-execution for -retries. Every /v1/* response is a
// deterministic function of the request body (content-keyed compiles,
// seeded simulations), so re-sending a failed request cannot change the
// answer: at worst it wastes work. This is the paper's recovery argument
// at request granularity, and -repeat and -expect-digest check it end to
// end (docs/resilience.md).
//
// Backoff jitter is drawn from the (seed, request index, try) splitmix64
// stream, so a campaign replayed with the same -seed sleeps the same
// schedule.
package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// The first retry waits about baseBackoff; each retry doubles the delay
// up to maxBackoff.
const (
	baseBackoff = 5 * time.Millisecond
	maxBackoff  = time.Second
)

// retryable reports whether an outcome justifies re-sending: a transport
// error (the response may never have left the server, and idempotence
// makes re-sending safe either way), a 429 shed, or a 5xx. Any other
// 4xx is the request's own fault, which re-sending cannot fix.
func retryable(status int, err error) bool {
	return err != nil || status == 429 || status >= 500
}

// retrier re-sends a failed request up to max more times. Its counters
// feed the -json summary's resilience section; it is safe for
// concurrent use.
type retrier struct {
	max  int
	seed uint64
	// sleep waits out a backoff; tests swap it. It must honor ctx.
	sleep func(ctx context.Context, d time.Duration) error

	attempts, retries, failures atomic.Int64
}

func newRetrier(retries int, seed uint64) *retrier {
	return &retrier{max: retries, seed: seed, sleep: sleepCtx}
}

// counts is the -json summary's resilience section.
func (r *retrier) counts() map[string]int64 {
	return map[string]int64{
		"attempts": r.attempts.Load(),
		"retries":  r.retries.Load(),
		"failures": r.failures.Load(),
	}
}

// do runs send until it succeeds, answers with a status re-sending
// cannot fix, the retry budget is spent, or ctx is done. key is the
// request index, which seeds the jitter. The last outcome's status and
// body come back even with an error, so a caller can tell "the server
// said 429" from "the transport died".
func (r *retrier) do(ctx context.Context, key uint64, send func(context.Context) (int, []byte, error)) (int, []byte, error) {
	for try := 0; ; try++ {
		r.attempts.Add(1)
		status, body, err := send(ctx)
		if !retryable(status, err) {
			return status, body, nil
		}
		if errors.Is(err, context.Canceled) {
			r.failures.Add(1)
			return status, body, err
		}
		if try >= r.max {
			r.failures.Add(1)
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			return status, body, fmt.Errorf("%d attempt(s) failed: %w", try+1, err)
		}
		r.retries.Add(1)
		if err := r.sleep(ctx, r.backoff(key, try+1)); err != nil {
			r.failures.Add(1)
			return status, body, err
		}
	}
}

// backoff returns the delay before retry number try (1-based), with
// jitter in [d/2, d) drawn from the (seed, key, try) stream.
func (r *retrier) backoff(key uint64, try int) time.Duration {
	d := baseBackoff << (try - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	half := uint64(d) / 2
	return time.Duration(half + mix(mix(r.seed^key)+uint64(try))%half)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}
