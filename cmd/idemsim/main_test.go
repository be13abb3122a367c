package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/workloads"
)

// TestCampaignJSONMatchesLibrary: for every scheme, idemsim's campaign
// JSON is byte for byte the library campaign on that scheme's build.
func TestCampaignJSONMatchesLibrary(t *testing.T) {
	w, ok := workloads.ByName("blackscholes")
	if !ok {
		t.Fatal("workload blackscholes missing")
	}
	// Cut the problem size so each campaign run stays fast.
	args := append([]uint64{}, w.Args...)
	args[0] /= 4
	var argStrs []string
	for _, a := range args {
		argStrs = append(argStrs, strconv.FormatUint(a, 10))
	}
	for _, name := range []string{"dmr", "tmr", "cl", "idem"} {
		t.Run(name, func(t *testing.T) {
			s, ok := fault.ParseScheme(name)
			if !ok {
				t.Fatalf("ParseScheme(%q) failed", name)
			}
			p, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, s.Idempotent(), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := fault.RunCampaign(context.Background(), fault.Apply(p, s), fault.Spec{
				Scheme: s, Runs: 16, Seed: 7, Models: fault.AllModels(), Args: args, KeepRecords: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')

			out := filepath.Join(t.TempDir(), "campaign.json")
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"-workload", w.Name, "-args", strings.Join(argStrs, ","),
				"-scheme", name, "-campaign", "16", "-seed", "7", "-models", "all", "-records", "-json", out},
				&stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("idemsim campaign JSON differs from fault.RunCampaign:\n%s\n---\n%s", got, want)
			}
			if !strings.HasPrefix(stdout.String(), "campaign ("+s.String()+"): 16 runs") {
				t.Errorf("summary: %q", stdout.String())
			}
		})
	}
}

// TestUsageErrors: bad input exits 1 with a named cause; an unknown flag
// such as -checkpoint is a usage error, exit 2.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown scheme", []string{"-workload", "mcf", "-scheme", "magic"}, 1, `unknown scheme "magic"`},
		{"campaign without scheme", []string{"-workload", "mcf", "-scheme", "none", "-campaign", "4"}, 1, "-campaign requires a -scheme"},
		{"checkpoint flag", []string{"-workload", "mcf", "-checkpoint", "x"}, 2, "-checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.want)
			}
		})
	}
}
