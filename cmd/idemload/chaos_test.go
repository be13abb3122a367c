package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okHandler replies 200 with a fixed body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "payload-0123456789-payload")
	})
}

// serveInjector serves an injector over next on an httptest server.
func serveInjector(t *testing.T, seed uint64, rates faultRates, next http.Handler) (*injector, string) {
	t.Helper()
	in := &injector{seed: seed, rates: rates, next: next}
	srv := httptest.NewServer(in)
	t.Cleanup(srv.Close)
	return in, srv.URL
}

// TestReset: at rate 1.0 every request dies with a transport error
// before any response.
func TestReset(t *testing.T) {
	in, url := serveInjector(t, 1, faultRates{reset: 1}, okHandler())
	resp, err := http.Get(url + "/x")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("got status %d, want transport error", resp.StatusCode)
	}
	if got := in.counts().Resets; got != 1 {
		t.Errorf("resets = %d, want 1", got)
	}
}

// TestError500: at rate 1.0 every request gets an injected 500 and the
// wrapped handler never runs.
func TestError500(t *testing.T) {
	reached := false
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { reached = true })
	_, url := serveInjector(t, 1, faultRates{error500: 1}, next)

	resp, err := http.Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if reached {
		t.Error("wrapped handler ran despite injected 500")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "chaos: injected") {
		t.Errorf("body %q does not identify the injection", body)
	}
}

// TestTruncate: the client sees valid headers with the full
// Content-Length but the body stops short (unexpected EOF).
func TestTruncate(t *testing.T) {
	_, url := serveInjector(t, 1, faultRates{truncate: 1}, okHandler())
	resp, err := http.Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (truncation is a body fault)", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %q cleanly, want unexpected EOF", body)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "EOF") {
		t.Errorf("err = %v, want an EOF-shaped error", err)
	}
	if len(body) >= len("payload-0123456789-payload") {
		t.Errorf("got %d body bytes, want a truncated prefix", len(body))
	}
}

// TestLatency: at rate 1.0 requests are delayed by at least latencyMin.
func TestLatency(t *testing.T) {
	in, url := serveInjector(t, 1, faultRates{latency: 1}, okHandler())
	start := time.Now()
	resp, err := http.Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < latencyMin {
		t.Errorf("request took %v, want >= %v injected latency", d, latencyMin)
	}
	if got := in.counts().Latencies; got != 1 {
		t.Errorf("latencies = %d, want 1", got)
	}
}

// TestDeterministicSchedule: two injectors with the same seed make the
// same fault decisions for the same request sequence; a different seed
// diverges somewhere.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed uint64) []int {
		_, url := serveInjector(t, seed, faultRates{error500: 0.4}, okHandler())
		var codes []int
		for i := 0; i < 40; i++ {
			resp, err := http.Get(url + "/x")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
		}
		return codes
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Errorf("seeds 7 and 8 produced identical 40-request schedules")
	}
}

// TestProxyPassThrough: a zero-rate proxy forwards bodies unchanged.
func TestProxyPassThrough(t *testing.T) {
	backend := httptest.NewServer(okHandler())
	defer backend.Close()

	in := &injector{seed: 1}
	srv, addr, err := listenChaos(strings.TrimPrefix(backend.URL, "http://"), in)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "payload-0123456789-payload" {
		t.Errorf("proxied body = %q", body)
	}
	if got := in.counts().Requests; got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
}
