// Package jobs is the async job subsystem behind POST /v1/jobs: accept
// a batch, return a handle immediately, run the units on the shared
// experiment engine pool, and expose results incrementally (long-poll
// cursor or index-ordered NDJSON stream) with the same byte-determinism
// contract as /v1/batch — the concatenated stream is derivable from the
// equivalent batch response body.
//
// The paper's core property makes jobs cheap to make durable: every
// unit is idempotent (a deterministic function of its request bytes),
// so a job is just units plus a journal of which indices completed.
// Completed results are journaled to disk as they land; a process kill
// at any point — graceful or not — loses at most the in-flight units,
// and a restarted manager resumes the remainder with zero re-execution
// of journaled indices (and, with the artifact store warm, zero
// recompiles). See docs/jobs.md.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/experiments"
)

// ErrTableFull is returned by Submit/Track when the bounded job table
// cannot admit another job even after reaping expired entries.
var ErrTableFull = errors.New("jobs: job table full, retry later")

// ErrClosed is returned once the manager is shutting down.
var ErrClosed = errors.New("jobs: manager closed")

// Run executes one unit (a raw BatchUnit body) and returns its
// marshaled BatchResult bytes. The server wires this to the same
// doCompile/doSimulate path /v1/batch uses, which is what makes job
// results byte-identical to batch results. A Run invoked under a
// canceled ctx may return garbage — the runner discards results
// delivered after cancellation.
type Run func(ctx context.Context, unit json.RawMessage, index int) []byte

// Config sizes a Manager. Zero values select the documented defaults.
type Config struct {
	// Dir roots the journal store (journals live in <Dir>/jobs). Empty
	// disables journaling: jobs still stream, but do not survive
	// restarts.
	Dir string
	// MaxJobs bounds the job table, running and terminal entries
	// together (default 64). Submissions beyond it get ErrTableFull.
	MaxJobs int
	// TTL is how long a terminal job (and its journal) stays queryable
	// before the reaper removes it (default 10m).
	TTL time.Duration
	// Logf receives recovery/reap lifecycle lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats is a point-in-time snapshot of the manager's counters for
// /metrics.
type Stats struct {
	Active       int64 // jobs currently running
	Tracked      int64 // jobs in the table (running + terminal)
	Completed    int64
	Canceled     int64
	Failed       int64
	Reaped       int64
	ResumedJobs  int64
	ResumedUnits int64
}

// Manager owns the bounded job table, the runner goroutines, journal
// recovery and TTL reaping. Create with NewManager; call Close on
// shutdown.
type Manager struct {
	cfg    Config
	engine *experiments.Engine
	run    Run

	rootCtx  context.Context
	rootStop context.CancelFunc
	closing  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	seq  uint64
	// nonce decorrelates job IDs across process restarts so a recovered
	// job's ID cannot collide with a freshly generated one.
	nonce uint64

	completed, canceled, failed atomic.Int64
	reaped                      atomic.Int64
	resumedJobs, resumedUnits   atomic.Int64
}

// NewManager builds a manager. engine and run may be nil for a manager
// that only tracks externally fed jobs (the front tier); Submit then
// must not be called. The TTL reaper starts immediately.
func NewManager(cfg Config, engine *experiments.Engine, run Run) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		engine:   engine,
		run:      run,
		rootCtx:  ctx,
		rootStop: cancel,
		closing:  make(chan struct{}),
		jobs:     map[string]*Job{},
		nonce:    uint64(time.Now().UnixNano()),
	}
	m.wg.Add(1)
	go m.reapLoop()
	return m
}

// newID allocates a table-unique job handle. Callers hold m.mu.
func (m *Manager) newID() string {
	for {
		m.seq++
		id := fmt.Sprintf("j%016x", mix(m.nonce+m.seq))
		if _, exists := m.jobs[id]; !exists {
			return id
		}
	}
}

// mix is one splitmix64 scramble step (the repository's shared PRNG
// family).
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// admit reserves a table slot under m.mu, reaping expired terminal jobs
// inline if the table is full.
func (m *Manager) admit(id string, j *Job) error {
	select {
	case <-m.closing:
		return ErrClosed
	default:
	}
	if len(m.jobs) >= m.cfg.MaxJobs {
		now := time.Now()
		for jid, old := range m.jobs {
			if old.reapable(now, m.cfg.TTL) {
				m.reap(jid, old)
			}
		}
	}
	if len(m.jobs) >= m.cfg.MaxJobs {
		return ErrTableFull
	}
	m.jobs[id] = j
	return nil
}

// Submit creates an engine-backed job for the validated batch body and
// its raw units, journals it (when Dir is set) and starts the runner.
func (m *Manager) Submit(body []byte, units []json.RawMessage) (*Job, error) {
	m.mu.Lock()
	id := m.newID()
	j := newJob(m, id, len(units))
	if err := m.admit(id, j); err != nil {
		m.mu.Unlock()
		j.cancel()
		return nil, err
	}
	m.mu.Unlock()

	if m.cfg.Dir != "" {
		j.jr = createJournal(jobsDir(m.cfg.Dir), id, len(units), body)
		if j.jr == nil {
			m.cfg.Logf("jobs: journal create failed for %s; job will not survive a restart", id)
		}
	}
	m.wg.Add(1)
	go m.runJob(j, units)
	return j, nil
}

// Track creates an externally fed job: the caller delivers results via
// Job.Deliver and finalizes with Fail if it must give up. A cancel
// reaches the feeders through Job.Context: the front tier's mergers run
// under it and release their per-replica sub-jobs when it is done.
func (m *Manager) Track(units int) (*Job, error) {
	if units <= 0 {
		return nil, errors.New("jobs: units must be positive")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.newID()
	j := newJob(m, id, units)
	if err := m.admit(id, j); err != nil {
		j.cancel()
		return nil, err
	}
	return j, nil
}

// Get looks a job up by handle.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job by handle. ok reports whether the job exists;
// canceling an already-terminal job is a no-op (idempotent, like
// everything else here).
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.finish(StateCanceled, "", &m.canceled)
	return j, true
}

// runJob executes the job's pending units on the engine pool. fn always
// returns nil (per-unit errors are results), mirroring /v1/batch; a
// canceled job context preempts running simulations and suppresses
// delivery of their partial results, so nothing non-deterministic is
// ever journaled or streamed.
func (m *Manager) runJob(j *Job, units []json.RawMessage) {
	defer m.wg.Done()
	var pending []int
	j.mu.Lock()
	for i, h := range j.have {
		if !h {
			pending = append(pending, i)
		}
	}
	j.mu.Unlock()

	_ = m.engine.ForEach(j.ctx, len(pending), func(ctx context.Context, k int) error {
		i := pending[k]
		if ctx.Err() != nil {
			return nil
		}
		b := m.run(ctx, units[i], i)
		if ctx.Err() != nil {
			// The cancellation (DELETE, drain) may have truncated this
			// unit's execution; its result is not trustworthy and the
			// unit is idempotent — drop it and let a resume re-run it.
			return nil
		}
		j.Deliver(i, b)
		return nil
	})
	j.release()
}

// ---------------------------------------------------------------------
// Recovery.

// RecoverStats summarizes a journal-recovery pass.
type RecoverStats struct {
	// Resumed jobs restarted mid-flight; Complete jobs reloaded fully
	// done (still queryable until their TTL).
	Resumed  int
	Complete int
	// Units preloaded from journals (work not re-executed).
	Units int
	// Pruned invalid journal files removed.
	Pruned int
}

// Recover scans <Dir>/jobs, reloads every valid journal and restarts
// runners for incomplete jobs. Completed indices are preloaded — not
// re-executed — which is the subsystem's end-to-end idempotence story:
// re-running only what the crash actually lost. Invalid journals (bad
// framing, bodies that no longer parse) are pruned like corrupt
// artifacts. Call once, after NewManager and before serving traffic.
func (m *Manager) Recover() RecoverStats {
	var rs RecoverStats
	if m.cfg.Dir == "" || m.run == nil {
		return rs
	}
	dir := jobsDir(m.cfg.Dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rs
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, journalExt) || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		path := filepath.Join(dir, name)
		prune := func(why string) {
			rs.Pruned++
			os.Remove(path)
			m.cfg.Logf("jobs: pruned journal %s: %s", name, why)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			prune(err.Error())
			continue
		}
		dj, err := decodeJournal(data)
		if err != nil {
			prune(err.Error())
			continue
		}
		if dj.id+journalExt != name {
			prune("id does not match filename")
			continue
		}
		var outer struct {
			Units []json.RawMessage `json:"units"`
		}
		if json.Unmarshal(dj.body, &outer) != nil || len(outer.Units) != dj.units {
			prune("body does not parse to the journaled unit count")
			continue
		}

		m.mu.Lock()
		if _, exists := m.jobs[dj.id]; exists {
			m.mu.Unlock()
			prune("duplicate job id")
			continue
		}
		j := newJob(m, dj.id, dj.units)
		for _, rec := range dj.records {
			j.preload(rec.index, rec.payload)
		}
		preloaded := j.resumed
		complete := j.frontier == dj.units
		if complete {
			j.state = StateDone
			j.doneAt = time.Now()
		}
		if err := m.admit(dj.id, j); err != nil {
			m.mu.Unlock()
			j.cancel()
			m.cfg.Logf("jobs: cannot readmit journaled job %s: %v", dj.id, err)
			continue
		}
		m.mu.Unlock()

		rs.Units += preloaded
		m.resumedUnits.Add(int64(preloaded))
		if complete {
			rs.Complete++
			// Keep the journal: the finished job stays streamable until
			// its TTL, exactly like a job that finished in this process.
			continue
		}
		j.jr = openJournalForAppend(path, dj.goodLen)
		rs.Resumed++
		m.resumedJobs.Add(1)
		m.wg.Add(1)
		go m.runJob(j, outer.Units)
	}
	if rs.Resumed+rs.Complete+rs.Pruned > 0 {
		m.cfg.Logf("jobs: recovered %d mid-flight + %d complete jobs (%d units journaled, %d journals pruned)",
			rs.Resumed, rs.Complete, rs.Units, rs.Pruned)
	}
	return rs
}

// ---------------------------------------------------------------------
// Reaping and shutdown.

func (m *Manager) reapLoop() {
	defer m.wg.Done()
	period := m.cfg.TTL / 4
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.closing:
			return
		case <-t.C:
		}
		now := time.Now()
		m.mu.Lock()
		for id, j := range m.jobs {
			if j.reapable(now, m.cfg.TTL) {
				m.reap(id, j)
			}
		}
		m.mu.Unlock()
	}
}

// reap drops one expired terminal job and its journal. Callers hold
// m.mu.
func (m *Manager) reap(id string, j *Job) {
	delete(m.jobs, id)
	j.mu.Lock()
	jr := j.jr
	j.jr = nil
	j.mu.Unlock()
	if jr != nil {
		jr.remove()
	} else if m.cfg.Dir != "" {
		// Done jobs recovered from a journal (or whose runner already
		// released the handle) still have a file on disk.
		os.Remove(filepath.Join(jobsDir(m.cfg.Dir), id+journalExt))
	}
	j.cancel()
	m.reaped.Add(1)
}

// Stop cancels every job context and wakes every poller/streamer, but
// does not wait. Journals of running jobs are left on disk — that is
// the resume contract: a drain stops the work, the next boot finishes
// it.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		close(m.closing)
		m.rootStop()
	})
}

// Close stops the manager and waits for runners and the reaper to exit
// (bounded by ctx). Simulations preempt within the configured poll
// stride, so the wait is short.
func (m *Manager) Close(ctx context.Context) error {
	m.Stop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the counters for /metrics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	tracked := int64(len(m.jobs))
	active := int64(0)
	for _, j := range m.jobs {
		if j.State() == StateRunning {
			active++
		}
	}
	m.mu.Unlock()
	return Stats{
		Active:       active,
		Tracked:      tracked,
		Completed:    m.completed.Load(),
		Canceled:     m.canceled.Load(),
		Failed:       m.failed.Load(),
		Reaped:       m.reaped.Load(),
		ResumedJobs:  m.resumedJobs.Load(),
		ResumedUnits: m.resumedUnits.Load(),
	}
}
