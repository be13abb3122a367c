package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitPreempted polls the preemption counter; the step loop's poll
// stride bounds how long a canceled simulation keeps running, so the
// counter must move almost immediately.
func waitPreempted(t *testing.T, s *Server, want int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for s.Metrics().SimPreempted.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("sim_preempted = %d after %v, want >= %d — the canceled simulation kept running",
				s.Metrics().SimPreempted.Load(), within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmSlow compiles slowSource with a one-iteration simulate. Arguments
// are not part of the compile cache key, so a later slow simulate finds
// its build cached and is already in the simulator, not still compiling,
// when the test cancels it; otherwise the cancellation ends the compile
// wait and no simulation is ever preempted.
func warmSlow(t *testing.T, ts *httptest.Server) {
	t.Helper()
	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{1}}))
	if code != http.StatusOK {
		t.Fatalf("warm-up simulate: status %d body %s", code, b)
	}
}

// TestSimulateTimeoutPreemptsRun: a request-deadline 503 must also stop
// the simulation server-side (the pre-preemption behavior was a 503
// whose run burned CPU to completion in the background). The preemption
// counter moving right after the 503 is the observable proof that the
// step loop exited on the deadline, within its instruction budget —
// the budget itself is pinned by the machine-level preemption tests.
func TestSimulateTimeoutPreemptsRun(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}}))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out simulate: status %d body %s, want 503", code, b)
	}
	if !strings.Contains(string(b), "request abandoned") {
		t.Errorf("timed-out simulate body %s, want 'request abandoned'", b)
	}
	waitPreempted(t, s, 1, 5*time.Second)

	// The counter is part of the exposition.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "idemd_sim_preempted_total 1") {
		t.Errorf("metrics missing idemd_sim_preempted_total 1:\n%s", mb)
	}
}

// TestClientCancelPreemptsRun: client disconnection (not just the
// server deadline) propagates into the step loop.
func TestClientCancelPreemptsRun(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	warmSlow(t, ts)

	slow := marshal(t, &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request: got %v, want context.Canceled", err)
	}
	waitPreempted(t, s, 1, 5*time.Second)
}

// TestBatchCancellationPreemptsUnits: abandoning a /v1/batch cancels
// the fan-out context, and every in-flight simulate unit stops stepping
// — preemption reaches through the engine pool, not just the
// single-request path.
func TestBatchCancellationPreemptsUnits(t *testing.T) {
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	warmSlow(t, ts)

	units := make([]BatchUnit, 4)
	for i := range units {
		units[i].Simulate = &SimulateRequest{Source: slowSource, Args: []uint64{200_000_000 + uint64(i)}}
	}
	body := marshal(t, &BatchRequest{Units: units})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the pool a moment to start the units, then pull the plug.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned batch: got %v, want context.Canceled", err)
	}
	// At least one unit was mid-simulation when the context died; all
	// such units must preempt.
	waitPreempted(t, s, 1, 5*time.Second)
}
