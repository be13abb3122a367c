package fault

import (
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// TestWorkloadCampaigns runs injection campaigns over real workloads (not
// just the test kernel) for every recovering scheme, requiring a correct
// result on every landed fault. This is the strongest end-to-end soundness
// check in the repository: it exercises loops whose regions wrap marks,
// calls, spills, and the φ-repair machinery under fire.
func TestWorkloadCampaigns(t *testing.T) {
	names := []string{"gcc", "gobmk", "milc", "canneal", "omnetpp"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		// Shrink the problem size so each of the ~30 runs stays fast.
		args := append([]uint64{}, w.Args...)
		if args[0] > 8 {
			args[0] = args[0] / 4
		}

		base, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, false, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		idem, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, true, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			s Scheme
			p *codegen.Program
		}{
			{SchemeIdempotence, Apply(idem, SchemeIdempotence)},
			{SchemeCheckpointLog, Apply(base, SchemeCheckpointLog)},
			{SchemeTMR, Apply(base, SchemeTMR)},
		} {
			res, err := campaign(tc.p, tc.s, 25, args...)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, tc.s, err)
			}
			if res.Landed < 5 {
				t.Fatalf("%s/%v: only %d faults landed", name, tc.s, res.Landed)
			}
			if res.Correct != res.Landed {
				t.Fatalf("%s/%v: %d of %d landed faults gave wrong results",
					name, tc.s, res.Landed-res.Correct, res.Landed)
			}
		}
	}
}

// TestWorkloadControlFlowCampaign does the same for wrong-direction branch
// failures under idempotence-based recovery.
func TestWorkloadControlFlowCampaign(t *testing.T) {
	for _, name := range []string{"gcc", "canneal"} {
		w, _ := workloads.ByName(name)
		args := append([]uint64{}, w.Args...)
		if args[0] > 8 {
			args[0] = args[0] / 4
		}
		p, _, err := codegen.CompileModule(w.Module(), "main", w.MemWords, true, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ip := Apply(p, SchemeIdempotence)
		cfg := machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence}
		ref := machine.New(ip, cfg)
		want, err := ref.Run(args...)
		if err != nil {
			t.Fatal(err)
		}
		span := ref.Stats.DynInstrs
		for i := 1; i <= 15; i++ {
			m := machine.New(ip, cfg)
			m.InjectControlFlowError(span * int64(i) / 16)
			got, err := m.Run(args...)
			if err != nil {
				t.Fatalf("%s flip %d: %v", name, i, err)
			}
			if m.Stats.Faults > 0 && got != want {
				t.Fatalf("%s flip %d: got %d want %d", name, i, got, want)
			}
		}
	}
}

// TestPureCallsRecovery validates the inter-procedural pure-call
// extension under fire: regions span calls to memory-free helpers, and
// faults inside those helpers must recover via the caller's region.
func TestPureCallsRecovery(t *testing.T) {
	for _, name := range []string{"sjeng", "swaptions", "perlbench"} {
		w, _ := workloads.ByName(name)
		args := append([]uint64{}, w.Args...)
		if args[0] > 8 {
			args[0] = args[0] / 4
		}
		p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords,
			codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), PureCalls: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ip := Apply(p, SchemeIdempotence)
		res, err := campaign(ip, SchemeIdempotence, 25, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Landed < 5 {
			t.Fatalf("%s: only %d faults landed", name, res.Landed)
		}
		if res.Correct != res.Landed {
			t.Fatalf("%s: %d of %d landed faults gave wrong results under pure-calls mode",
				name, res.Landed-res.Correct, res.Landed)
		}
	}
}
