package main

import (
	"strings"
	"testing"
)

// TestFixture runs the linter over the testdata fixture package and
// checks that exactly the Bad* functions are flagged.
func TestFixture(t *testing.T) {
	findings, err := run("testdata/src", []string{"fixture"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := map[string]bool{
		"append to out":            false, // BadAppend
		"append to keys":           false, // BadAppendSlicesNoSort
		"Builder.WriteString on b": false, // BadBuilder
		"fmt.Println":              false, // BadPrint
		"string build of s":        false, // BadConcat
	}
	for _, f := range findings {
		matched := false
		for w := range want {
			if strings.Contains(f, w) {
				want[w] = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for w, seen := range want {
		if !seen {
			t.Errorf("missing finding for %q", w)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
}

// TestRepoClean is the live gate: every package of the module must
// lint clean from the repo root (mirrors what `make lint` enforces).
func TestRepoClean(t *testing.T) {
	targets, err := modulePackages("../..")
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	findings, err := run("../..", targets)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("order-sensitive map iterations:\n%s", strings.Join(findings, "\n"))
	}
}
