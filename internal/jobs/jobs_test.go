package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idemproc/internal/experiments"
)

// testBody builds a /v1/jobs-shaped body with n trivial units and
// returns it alongside the raw units, the way the server hands them to
// Submit.
func testBody(t *testing.T, n int) ([]byte, []json.RawMessage) {
	t.Helper()
	units := make([]json.RawMessage, n)
	for i := range units {
		units[i] = json.RawMessage(fmt.Sprintf(`{"unit":%d}`, i))
	}
	body, err := json.Marshal(struct {
		Units []json.RawMessage `json:"units"`
	}{units})
	if err != nil {
		t.Fatal(err)
	}
	return body, units
}

// echoRun is a deterministic Run: result bytes derive only from the
// unit bytes and index.
func echoRun(ctx context.Context, unit json.RawMessage, index int) []byte {
	return []byte(fmt.Sprintf(`{"index":%d,"echo":%s}`, index, unit))
}

func newTestManager(t *testing.T, cfg Config, run Run) *Manager {
	t.Helper()
	m := NewManager(cfg, experiments.NewEngine(4), run)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job state = %v, want %v", j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobRunsToDoneInIndexOrder(t *testing.T) {
	m := newTestManager(t, Config{}, echoRun)
	body, units := testBody(t, 17)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	rep := j.Poll(context.Background(), 0, 0)
	if rep.State != "done" || rep.NextCursor != 17 || len(rep.Results) != 17 {
		t.Fatalf("poll = %+v", rep)
	}
	for i, r := range rep.Results {
		if want := echoRun(context.Background(), units[i], i); !bytes.Equal(r, want) {
			t.Fatalf("result[%d] = %s, want %s", i, r, want)
		}
	}
}

func TestLongPollWakesOnProgress(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context, unit json.RawMessage, index int) []byte {
		if index > 0 {
			once.Do(func() {}) // no-op; index 0 gates below
		}
		if index == 0 {
			<-release
		}
		return echoRun(ctx, unit, index)
	}
	m := newTestManager(t, Config{}, run)
	body, units := testBody(t, 3)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	// Frontier is stuck at 0 while unit 0 blocks, even though units 1-2
	// may complete out of order.
	rep := j.Poll(context.Background(), 0, 20*time.Millisecond)
	if len(rep.Results) != 0 || rep.NextCursor != 0 || rep.State != "running" {
		t.Fatalf("pre-release poll = %+v", rep)
	}

	done := make(chan PollResponse, 1)
	go func() { done <- j.Poll(context.Background(), 0, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	rep = <-done
	if len(rep.Results) == 0 || rep.NextCursor == 0 {
		t.Fatalf("post-release poll returned no progress: %+v", rep)
	}
}

func TestPollConcurrentPollersAllComplete(t *testing.T) {
	m := newTestManager(t, Config{}, echoRun)
	body, units := testBody(t, 9)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursor := 0
			var got []json.RawMessage
			for cursor < j.Units() {
				rep := j.Poll(context.Background(), cursor, 2*time.Second)
				got = append(got, rep.Results...)
				cursor = rep.NextCursor
			}
			for i, r := range got {
				if want := echoRun(context.Background(), units[i], i); !bytes.Equal(r, want) {
					t.Errorf("poller result[%d] = %s, want %s", i, r, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPollCursorAtEndReturnsEmpty(t *testing.T) {
	m := newTestManager(t, Config{}, echoRun)
	body, units := testBody(t, 4)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	rep := j.Poll(context.Background(), 4, time.Second)
	if len(rep.Results) != 0 || rep.NextCursor != 4 || rep.State != "done" {
		t.Fatalf("poll at end = %+v", rep)
	}
	if rep.Results == nil {
		t.Fatal("Results must be non-nil (encodes as [] not null)")
	}
}

func TestStreamMatchesResults(t *testing.T) {
	m := newTestManager(t, Config{}, echoRun)
	body, units := testBody(t, 25)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	n, err := j.Stream(context.Background(), 0, func(chunk [][]byte) error {
		got = append(got, chunk...)
		return nil
	})
	if err != nil || n != 25 || len(got) != 25 {
		t.Fatalf("stream: n=%d err=%v len=%d", n, err, len(got))
	}
	for i, r := range got {
		if want := echoRun(context.Background(), units[i], i); !bytes.Equal(r, want) {
			t.Fatalf("stream[%d] = %s, want %s", i, r, want)
		}
	}
	// Streaming from a mid-job cursor yields the suffix.
	got = nil
	n, err = j.Stream(context.Background(), 20, func(chunk [][]byte) error {
		got = append(got, chunk...)
		return nil
	})
	if err != nil || n != 5 {
		t.Fatalf("suffix stream: n=%d err=%v", n, err)
	}
}

func TestCancelStopsJobAndRemovesJournal(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	var started atomic.Bool
	run := func(ctx context.Context, unit json.RawMessage, index int) []byte {
		if index == 1 {
			started.Store(true)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return echoRun(ctx, unit, index)
	}
	m := newTestManager(t, Config{Dir: dir}, run)
	body, units := testBody(t, 3)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	for !started.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	close(release)
	waitState(t, j, StateCanceled)
	select {
	case <-j.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("job context not canceled")
	}
	// Journal must be gone so the canceled job cannot resurrect.
	deadline := time.Now().Add(2 * time.Second)
	path := filepath.Join(jobsDir(dir), j.ID()+journalExt)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal %s still exists after cancel", path)
		}
		time.Sleep(time.Millisecond)
	}
	if s := m.Stats(); s.Canceled != 1 {
		t.Fatalf("stats.Canceled = %d, want 1", s.Canceled)
	}
}

func TestDeliverDuplicateAndOutOfRangeIgnored(t *testing.T) {
	m := newTestManager(t, Config{}, nil)
	j, err := m.Track(2)
	if err != nil {
		t.Fatal(err)
	}
	j.Deliver(-1, []byte("x"))
	j.Deliver(2, []byte("x"))
	j.Deliver(0, []byte("a"))
	j.Deliver(0, []byte("DUP"))
	j.Deliver(1, []byte("b"))
	rep := j.Poll(context.Background(), 0, 0)
	if rep.State != "done" || string(rep.Results[0]) != "a" || string(rep.Results[1]) != "b" {
		t.Fatalf("poll = %+v", rep)
	}
	// Post-terminal delivery is ignored too.
	j.Deliver(0, []byte("LATE"))
	if got := j.Poll(context.Background(), 0, 0); string(got.Results[0]) != "a" {
		t.Fatalf("post-terminal deliver mutated results: %s", got.Results[0])
	}
}

func TestTrackFailWakesWaiters(t *testing.T) {
	m := newTestManager(t, Config{}, nil)
	j, err := m.Track(3)
	if err != nil {
		t.Fatal(err)
	}
	j.Deliver(0, []byte("a"))
	done := make(chan PollResponse, 1)
	go func() { done <- j.Poll(context.Background(), 1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	j.Fail("no replica could run the sub-batch")
	rep := <-done
	if rep.State != "failed" || rep.Error == "" {
		t.Fatalf("poll after fail = %+v", rep)
	}
	// Stream ends early on a terminal state short of all units.
	var got int
	n, err := j.Stream(context.Background(), 0, func(chunk [][]byte) error {
		got += len(chunk)
		return nil
	})
	if err != nil || n != 1 || got != 1 {
		t.Fatalf("stream after fail: n=%d got=%d err=%v", n, got, err)
	}
}

func TestTableBoundAndReap(t *testing.T) {
	m := newTestManager(t, Config{MaxJobs: 2, TTL: 30 * time.Millisecond}, nil)
	j1, err := m.Track(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Track(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Track(1); err != ErrTableFull {
		t.Fatalf("third Track err = %v, want ErrTableFull", err)
	}
	// Finish j1; after its TTL the next admit reaps it inline.
	j1.Deliver(0, []byte("r"))
	time.Sleep(50 * time.Millisecond)
	if _, err := m.Track(1); err != nil {
		t.Fatalf("Track after TTL expiry err = %v", err)
	}
	if _, ok := m.Get(j1.ID()); ok {
		t.Fatal("reaped job still visible")
	}
	if s := m.Stats(); s.Reaped < 1 {
		t.Fatalf("stats.Reaped = %d, want >= 1", s.Reaped)
	}
}

func TestReaperRemovesExpiredJobs(t *testing.T) {
	m := newTestManager(t, Config{TTL: 20 * time.Millisecond}, echoRun)
	body, units := testBody(t, 1)
	j, err := m.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := m.Get(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper did not remove expired job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRecoverResumesWithoutReexecution(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	body, units := testBody(t, n)

	// First life: run half the units, then stop the manager abruptly
	// (Stop cancels runners; release keeps journals on disk).
	var ran1 atomic.Int64
	gate := make(chan struct{})
	run1 := func(ctx context.Context, unit json.RawMessage, index int) []byte {
		if index >= n/2 {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		ran1.Add(1)
		return echoRun(ctx, unit, index)
	}
	m1 := NewManager(Config{Dir: dir}, experiments.NewEngine(2), run1)
	j1, err := m1.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first half to land.
	deadline := time.Now().Add(5 * time.Second)
	for j1.Frontier() < n/2 {
		if time.Now().After(deadline) {
			t.Fatalf("frontier = %d, want >= %d", j1.Frontier(), n/2)
		}
		time.Sleep(time.Millisecond)
	}
	id := j1.ID()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m1.Close(ctx)
	cancel()
	close(gate)

	// Second life: recovery must preload the journaled prefix and only
	// re-execute the lost units.
	var ran2 atomic.Int64
	var reran1stHalf atomic.Int64
	run2 := func(ctx context.Context, unit json.RawMessage, index int) []byte {
		ran2.Add(1)
		if index < n/2 {
			reran1stHalf.Add(1)
		}
		return echoRun(ctx, unit, index)
	}
	m2 := NewManager(Config{Dir: dir}, experiments.NewEngine(2), run2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m2.Close(ctx)
	}()
	rs := m2.Recover()
	if rs.Resumed != 1 || rs.Units < n/2 {
		t.Fatalf("recover stats = %+v, want 1 resumed with >= %d units", rs, n/2)
	}
	j2, ok := m2.Get(id)
	if !ok {
		t.Fatalf("recovered job %s not in table", id)
	}
	if j2.Resumed() != rs.Units {
		t.Fatalf("job resumed = %d, want %d", j2.Resumed(), rs.Units)
	}
	waitState(t, j2, StateDone)
	if got := reran1stHalf.Load(); got != 0 {
		t.Fatalf("recovery re-executed %d journaled units", got)
	}
	if got := int(ran2.Load()) + rs.Units; got != n {
		t.Fatalf("second life executed %d units + %d preloaded, want total %d", ran2.Load(), rs.Units, n)
	}

	// The full result set must be byte-identical to an uninterrupted run.
	rep := j2.Poll(context.Background(), 0, 0)
	for i, r := range rep.Results {
		if want := echoRun(context.Background(), units[i], i); !bytes.Equal(r, want) {
			t.Fatalf("recovered result[%d] = %s, want %s", i, r, want)
		}
	}
	if s := m2.Stats(); s.ResumedJobs != 1 || int(s.ResumedUnits) != rs.Units {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecoverCompleteJobStaysQueryable(t *testing.T) {
	dir := t.TempDir()
	body, units := testBody(t, 5)
	m1 := NewManager(Config{Dir: dir}, experiments.NewEngine(2), echoRun)
	j1, err := m1.Submit(body, units)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	id := j1.ID()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m1.Close(ctx)
	cancel()

	m2 := newTestManager(t, Config{Dir: dir}, echoRun)
	rs := m2.Recover()
	if rs.Complete != 1 || rs.Resumed != 0 {
		t.Fatalf("recover stats = %+v, want 1 complete", rs)
	}
	j2, ok := m2.Get(id)
	if !ok || j2.State() != StateDone {
		t.Fatalf("complete job not queryable after restart: ok=%v", ok)
	}
	rep := j2.Poll(context.Background(), 0, 0)
	if len(rep.Results) != 5 {
		t.Fatalf("recovered complete job returned %d results", len(rep.Results))
	}
	for i, r := range rep.Results {
		if want := echoRun(context.Background(), units[i], i); !bytes.Equal(r, want) {
			t.Fatalf("result[%d] mismatch after restart", i)
		}
	}
}

func TestRecoverPrunesCorruptJournals(t *testing.T) {
	dir := t.TempDir()
	jd := jobsDir(dir)
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	// Garbage file, wrong-name file, and a valid header whose filename
	// does not match the journaled id.
	os.WriteFile(filepath.Join(jd, "jdeadbeef.job"), []byte("not a journal"), 0o644)
	os.WriteFile(filepath.Join(jd, "jmismatch.job"), encodeJournalHeader("jother", 1, []byte(`{"units":[{}]}`)), 0o644)
	// Header whose body does not parse to the journaled unit count.
	os.WriteFile(filepath.Join(jd, "jbadbody.job"), encodeJournalHeader("jbadbody", 3, []byte(`{"units":[{}]}`)), 0o644)

	m := newTestManager(t, Config{Dir: dir}, echoRun)
	rs := m.Recover()
	if rs.Pruned != 3 || rs.Resumed != 0 || rs.Complete != 0 {
		t.Fatalf("recover stats = %+v, want 3 pruned", rs)
	}
	entries, _ := os.ReadDir(jd)
	if len(entries) != 0 {
		t.Fatalf("%d corrupt journals left on disk", len(entries))
	}
}

func TestSubmitAfterStopRefused(t *testing.T) {
	m := NewManager(Config{}, experiments.NewEngine(1), echoRun)
	m.Stop()
	body, units := testBody(t, 1)
	if _, err := m.Submit(body, units); err != ErrClosed {
		t.Fatalf("Submit after Stop err = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStopWakesPollersAndStreamers(t *testing.T) {
	m := NewManager(Config{}, nil, nil)
	j, err := m.Track(2)
	if err != nil {
		t.Fatal(err)
	}
	pollDone := make(chan PollResponse, 1)
	streamDone := make(chan error, 1)
	go func() { pollDone <- j.Poll(context.Background(), 0, time.Minute) }()
	go func() {
		_, err := j.Stream(context.Background(), 0, func([][]byte) error { return nil })
		streamDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Stop()
	select {
	case <-pollDone:
	case <-time.After(2 * time.Second):
		t.Fatal("poller not woken by Stop")
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("stream err after Stop = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("streamer not woken by Stop")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Close(ctx)
}

func TestJobIDsUnique(t *testing.T) {
	m := newTestManager(t, Config{MaxJobs: 128}, nil)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		j, err := m.Track(1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[j.ID()] {
			t.Fatalf("duplicate job id %s", j.ID())
		}
		if !strings.HasPrefix(j.ID(), "j") || len(j.ID()) != 17 {
			t.Fatalf("malformed job id %q", j.ID())
		}
		seen[j.ID()] = true
	}
}
