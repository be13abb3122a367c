package main

import (
	"bytes"
	"strings"
	"testing"
)

// runMain invokes realMain with captured streams.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestOutputByteIdenticalAcrossWorkers is the determinism contract test:
// the same figure selection must produce byte-identical stdout for a
// serial and a wide worker pool. It exercises both a build-only table
// and a build+simulate figure over a multi-workload suite so the
// parallel fan-out actually reorders completion.
func TestOutputByteIdenticalAcrossWorkers(t *testing.T) {
	sel := []string{"-table2", "-fig10", "-suite", "PARSEC"}
	code1, out1, err1 := runMain(t, append([]string{"-workers", "1"}, sel...)...)
	if code1 != 0 {
		t.Fatalf("-workers 1 exited %d, stderr:\n%s", code1, err1)
	}
	code8, out8, err8 := runMain(t, append([]string{"-workers", "8"}, sel...)...)
	if code8 != 0 {
		t.Fatalf("-workers 8 exited %d, stderr:\n%s", code8, err8)
	}
	if out1 != out8 {
		t.Fatalf("stdout differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", out1, out8)
	}
	if out1 == "" {
		t.Fatal("no output produced")
	}
}

// TestErrorCollectionKeepsCompletedTables checks the failure path: one
// failing figure must not discard the tables that computed, must name
// itself on stderr, and the process must exit nonzero.
func TestErrorCollectionKeepsCompletedTables(t *testing.T) {
	// -sweep has no representative workload inside PARSEC, so it fails
	// while -table2 succeeds.
	code, stdout, stderr := runMain(t, "-table2", "-sweep", "-suite", "PARSEC")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table 2") {
		t.Errorf("completed Table 2 missing from stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "idembench: sweep: no representative workload in selection") {
		t.Errorf("stderr does not name the failing figure and its cause:\n%s", stderr)
	}
	if strings.Contains(stderr, "sweep: sweep:") {
		t.Errorf("stderr repeats the figure name:\n%s", stderr)
	}
	if !strings.Contains(stderr, "1 of 2 requested experiments failed") {
		t.Errorf("stderr missing failure summary:\n%s", stderr)
	}
}

// TestAllSkipsSweepWithoutWorkload checks that -all over a selection
// with no sweep representative (PARSEC has neither gcc nor lbm) prints
// every other table and succeeds, where an explicit -sweep would fail.
func TestAllSkipsSweepWithoutWorkload(t *testing.T) {
	code, stdout, stderr := runMain(t, "-all", "-suite", "PARSEC")
	if code != 0 || stderr != "" {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stdout, "Region-size sweep") {
		t.Errorf("-all ran the sweep without a workload to run it on:\n%s", stdout)
	}
	for _, want := range []string{"Table 2", "Figure 4", "Figure 12", "Ablation: pure-call extension"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
}

// TestTimingBreakdown checks -timing appends the stage breakdown after
// the figures (timing values are wall-clock and intentionally outside
// the byte-identical contract).
func TestTimingBreakdown(t *testing.T) {
	code, stdout, stderr := runMain(t, "-table2", "-workload", "mcf", "-workers", "4", "-timing")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"compile:", "build cache", "distinct"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("timing breakdown missing %q:\n%s", want, stdout)
		}
	}
}

// TestUsageAndSelectionErrors covers the flag/selection error exits.
func TestUsageAndSelectionErrors(t *testing.T) {
	if code, _, _ := runMain(t); code != 2 {
		t.Errorf("no figure selected: exit %d, want 2", code)
	}
	if code, _, stderr := runMain(t, "-table2", "-suite", "NOPE"); code != 1 || !strings.Contains(stderr, "unknown suite") {
		t.Errorf("unknown suite: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runMain(t, "-table2", "-workload", "nope"); code != 1 || !strings.Contains(stderr, "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runMain(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
