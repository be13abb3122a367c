package jobs

// Job is the unit of the async batch subsystem: a set of idempotent
// units plus the record of which ones have completed. Results land in
// per-index slots as units finish (in any order), but are only *exposed*
// as the contiguous completed prefix ("frontier") in strict index order
// — that is what keeps the streamed bytes identical to the equivalent
// /v1/batch response regardless of worker count, completion order, or
// how many times the job was interrupted and resumed.

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State int

const (
	// StateRunning: units are executing (or will resume on restart).
	StateRunning State = iota
	// StateDone: every unit's result is delivered.
	StateDone
	// StateCanceled: DELETE /v1/jobs/{id} stopped it; its journal is
	// removed so it cannot resurrect on restart.
	StateCanceled
	// StateFailed: an external feeder gave up (front tier: no replica
	// could run a sub-batch). Local engine-backed jobs never fail —
	// per-unit errors are results, not job failures.
	StateFailed
)

// String renders the state for API responses.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// Job is one tracked batch. Created by Manager.Submit (local,
// engine-backed, journaled) or Manager.Track (externally fed — the
// front tier's merged view over per-replica sub-jobs).
type Job struct {
	id string
	m  *Manager

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	results  [][]byte // per-index marshaled BatchResult bytes
	have     []bool
	frontier int // contiguous completed prefix length
	state    State
	errMsg   string
	doneAt   time.Time
	// progress is closed and replaced on every observable change, waking
	// all pollers/streamers at once (a broadcast).
	progress chan struct{}
	jr       *journal
	resumed  int // units preloaded from the journal on recovery
}

func newJob(m *Manager, id string, units int) *Job {
	ctx, cancel := context.WithCancel(m.rootCtx)
	return &Job{
		id:       id,
		m:        m,
		ctx:      ctx,
		cancel:   cancel,
		results:  make([][]byte, units),
		have:     make([]bool, units),
		progress: make(chan struct{}),
	}
}

// ID returns the job handle.
func (j *Job) ID() string { return j.id }

// Units returns the unit count.
func (j *Job) Units() int { return len(j.results) }

// Context is canceled when the job is canceled, fails, or the manager
// shuts down. External feeders (the front tier's mergers) run under it.
func (j *Job) Context() context.Context { return j.ctx }

// State reads the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Frontier reads the contiguous completed prefix length.
func (j *Job) Frontier() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frontier
}

// Resumed reports how many unit results were preloaded from the journal
// when this job was recovered (0 for fresh jobs).
func (j *Job) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// broadcast wakes every waiter. Callers hold j.mu.
func (j *Job) broadcast() {
	close(j.progress)
	j.progress = make(chan struct{})
}

// Deliver records one unit's result bytes. Duplicate and post-terminal
// deliveries are ignored (re-execution after a lost response is the
// idempotence story: same bytes, delivered once). Completed results are
// journaled at delivery time — in completion order, which is why
// recovery reloads *all* records, not just the in-order prefix.
func (j *Job) Deliver(index int, result []byte) {
	if index < 0 || index >= len(j.results) {
		return
	}
	j.mu.Lock()
	if j.state != StateRunning || j.have[index] {
		j.mu.Unlock()
		return
	}
	j.results[index] = result
	j.have[index] = true
	for j.frontier < len(j.have) && j.have[j.frontier] {
		j.frontier++
	}
	done := j.frontier == len(j.have)
	if done {
		j.state = StateDone
		j.doneAt = time.Now()
	}
	jr := j.jr
	j.broadcast()
	j.mu.Unlock()

	jr.append(index, result)
	if done {
		j.m.completed.Add(1)
	}
}

// preload installs a journaled result during recovery (no re-append, no
// completion accounting — the caller finalizes state afterwards).
func (j *Job) preload(index int, result []byte) {
	if index < 0 || index >= len(j.results) || j.have[index] {
		return
	}
	j.results[index] = result
	j.have[index] = true
	j.resumed++
	for j.frontier < len(j.have) && j.have[j.frontier] {
		j.frontier++
	}
}

// finish moves a running job to a terminal state (StateCanceled or
// StateFailed, with msg): waiters wake, the unit contexts are canceled
// (running simulations preempt within the poll budget), the journal is
// deleted, so a terminal job stays terminal across restarts, and n
// counts the transition. A job already terminal is left as it is.
func (j *Job) finish(state State, msg string, n *atomic.Int64) {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = msg
	j.doneAt = time.Now()
	jr := j.jr
	j.jr = nil
	j.broadcast()
	j.mu.Unlock()

	j.cancel()
	jr.remove()
	n.Add(1)
}

// Fail transitions an externally fed job to StateFailed with a message.
func (j *Job) Fail(msg string) { j.finish(StateFailed, msg, &j.m.failed) }

// release closes the journal handle without touching the file (shutdown
// path: the journal must survive for the restart to resume from).
func (j *Job) release() {
	j.mu.Lock()
	jr := j.jr
	j.jr = nil
	j.mu.Unlock()
	j.cancel()
	jr.close()
}

// reapable reports whether the TTL has expired on a terminal job.
func (j *Job) reapable(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != StateRunning && now.Sub(j.doneAt) > ttl
}

// ---------------------------------------------------------------------
// Result exposure: long-poll and stream.

// PollResponse is the GET /v1/jobs/{id} body. Results holds the
// marshaled per-unit BatchResult bytes for indices [cursor,
// next_cursor) — verbatim, so the concatenation across polls is
// byte-identical to the /v1/batch results array.
type PollResponse struct {
	ID         string            `json:"id"`
	State      string            `json:"state"`
	Units      int               `json:"units"`
	NextCursor int               `json:"next_cursor"`
	Error      string            `json:"error,omitempty"`
	Results    []json.RawMessage `json:"results"`
}

// Poll returns the results available at cursor, long-polling up to wait
// for the frontier to advance past it (or the job to go terminal). It
// returns immediately when results are already available, wait is zero,
// ctx is done, or the manager is shutting down. The caller validates
// cursor ∈ [0, units].
func (j *Job) Poll(ctx context.Context, cursor int, wait time.Duration) PollResponse {
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	j.mu.Lock()
	for j.frontier <= cursor && j.state == StateRunning && wait > 0 {
		ch := j.progress
		j.mu.Unlock()
		select {
		case <-ch:
		case <-timeout:
			j.mu.Lock()
			goto snapshot
		case <-ctx.Done():
			j.mu.Lock()
			goto snapshot
		case <-j.m.closing:
			j.mu.Lock()
			goto snapshot
		}
		j.mu.Lock()
	}
snapshot:
	rep := PollResponse{
		ID:         j.id,
		State:      j.state.String(),
		Units:      len(j.results),
		NextCursor: j.frontier,
		Error:      j.errMsg,
		Results:    []json.RawMessage{},
	}
	if j.frontier > cursor {
		rep.Results = make([]json.RawMessage, 0, j.frontier-cursor)
		for _, b := range j.results[cursor:j.frontier] {
			rep.Results = append(rep.Results, json.RawMessage(b))
		}
	} else {
		rep.NextCursor = cursor
	}
	j.mu.Unlock()
	return rep
}

// Stream emits result chunks in strict index order, starting at cursor,
// until every unit has been emitted or the job goes terminal early
// (canceled/failed — the stream then ends short; the client learns why
// from a follow-up poll). Each chunk is the newly completed contiguous
// run. Returns the number of results emitted after cursor.
func (j *Job) Stream(ctx context.Context, cursor int, emit func(chunk [][]byte) error) (int, error) {
	emitted := 0
	for {
		j.mu.Lock()
		for j.frontier <= cursor && j.state == StateRunning {
			ch := j.progress
			j.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return emitted, ctx.Err()
			case <-j.m.closing:
				return emitted, nil
			}
			j.mu.Lock()
		}
		chunk := j.results[cursor:j.frontier]
		state := j.state
		j.mu.Unlock()

		if len(chunk) > 0 {
			if err := emit(chunk); err != nil {
				return emitted, err
			}
			cursor += len(chunk)
			emitted += len(chunk)
		}
		if cursor >= len(j.results) || state != StateRunning {
			return emitted, nil
		}
	}
}
