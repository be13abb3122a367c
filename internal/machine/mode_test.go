package machine_test

import (
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// flipThenLoop builds a program whose first instruction writes r1, the
// target of a fault at step 0. It optionally overwrites r1, spins long
// enough to pass several mode decisions, and returns r1.
func flipThenLoop(overwrite bool) *codegen.Program {
	ins := []isa.Instr{{Op: isa.MOVI, Rd: isa.R1, Imm: 5}}
	if overwrite {
		ins = append(ins, isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 6})
	}
	loop := len(ins) + 1
	ins = append(ins,
		isa.Instr{Op: isa.MOVI, Rd: isa.R2, Imm: 3000},
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		isa.Instr{Op: isa.CBNZ, Rs1: isa.R2, Imm: int64(loop)},
		isa.Instr{Op: isa.MOV, Rd: isa.R0, Rs1: isa.R1},
		isa.Instr{Op: isa.HALT},
	)
	return &codegen.Program{
		Instrs:     ins,
		FuncEntry:  map[string]int{},
		GlobalBase: map[string]int64{},
		FuncOf:     make([]string, len(ins)),
		MemWords:   256,
	}
}

// TestResolvedFaultReturnsCold pins when a faulted run leaves the fault
// machinery: once no injection is pending and the registers equal the
// golden mirror, the machine goes cold again; a divergent register or a
// pending injection keeps it hot to the end.
func TestResolvedFaultReturnsCold(t *testing.T) {
	t.Run("none/overwritten", func(t *testing.T) {
		m := machine.New(flipThenLoop(true), machine.Config{})
		m.InjectFault(0, 3)
		checkRun(t, m, 6, false)
	})
	t.Run("none/never-rewritten", func(t *testing.T) {
		m := machine.New(flipThenLoop(false), machine.Config{})
		m.InjectFault(0, 3)
		checkRun(t, m, 5^(1<<3), true)
	})
	t.Run("none/nested-pending", func(t *testing.T) {
		// The nested fault waits for a recovery that RecoverNone never
		// makes, so its queue keeps the machine hot.
		m := machine.New(flipThenLoop(true), machine.Config{})
		m.InjectFault(0, 3)
		m.InjectNestedFault(1, 1<<4)
		checkRun(t, m, 6, true)
	})

	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	for _, tc := range []struct {
		name     string
		idem     bool
		scheme   fault.Scheme
		cfg      machine.Config
		recovers bool // re-execution or rollback, not an in-place vote
	}{
		{"idem", true, fault.SchemeIdempotence, machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence}, true},
		{"cl", false, fault.SchemeCheckpointLog, machine.Config{Recovery: machine.RecoverCheckpointLog}, true},
		{"tmr", false, fault.SchemeTMR, machine.Config{Recovery: machine.RecoverTMR}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords,
				codegen.ModuleOptions{Core: core.DefaultOptions(), Idempotent: tc.idem})
			if err != nil {
				t.Fatal(err)
			}
			p = fault.Apply(p, tc.scheme)
			want, err := machine.New(p, tc.cfg).Run(w.Args...)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(p, tc.cfg)
			m.InjectFault(101, 7)
			checkRun(t, m, want, false, w.Args...)
			if m.Stats.Detections == 0 || (m.Stats.Recoveries > 0) != tc.recovers {
				t.Fatalf("%d detections, %d recoveries: the fault was not resolved the %s way",
					m.Stats.Detections, m.Stats.Recoveries, tc.name)
			}
		})
	}
}

// checkRun runs m, which has exactly one primary fault armed, and checks
// the result and the mode the run ended in.
func checkRun(t *testing.T, m *machine.Machine, want uint64, hot bool, args ...uint64) {
	t.Helper()
	got, err := m.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
	if m.Stats.Faults != 1 {
		t.Fatalf("%d faults fired, want 1", m.Stats.Faults)
	}
	if m.Hot() != hot {
		t.Fatalf("run ended with hot = %v, want %v", m.Hot(), hot)
	}
}
