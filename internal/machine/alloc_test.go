package machine

import (
	"testing"

	"idemproc/internal/isa"
)

// TestStepZeroAllocs pins the hot loop's allocation contract: a
// fault-free step — including loads with store-buffer forwarding,
// buffered stores, region commits at MARK, path tracking and the cache
// model — performs no heap allocation. A regression here silently
// destroys the throughput the predecoded engine exists for, so it fails
// loudly instead of showing up as a benchmark drift.
func TestStepZeroAllocs(t *testing.T) {
	// A store/load/commit loop with a huge trip count so the machine
	// never halts while we measure.
	p := rawProgram(
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 8},           // memory cell
		isa.Instr{Op: isa.MOVI, Rd: isa.R2, Imm: 100_000_000}, // trip count
		isa.Instr{Op: isa.MARK},
		isa.Instr{Op: isa.LDR, Rd: isa.R3, Rs1: isa.R1},
		isa.Instr{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R3, Imm: 1},
		isa.Instr{Op: isa.STR, Rs1: isa.R1, Rs2: isa.R3},
		isa.Instr{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1},
		isa.Instr{Op: isa.CBNZ, Rs1: isa.R2, Imm: 2},
		isa.Instr{Op: isa.HALT},
	)
	m := New(p, Config{BufferStores: true, TrackPaths: true, Cache: DefaultCache()})
	m.PC = p.Entry
	m.rp = m.PC

	// run drives the interpreter loop for exactly n instructions.
	run := func(n int64) {
		if err := m.exec(m.Stats.DynInstrs + n - 1); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: let every lazily-grown structure (store buffer, its index,
	// the path histogram bucket) reach steady state.
	run(10_000)

	avg := testing.AllocsPerRun(50, func() { run(1_000) })
	if avg != 0 {
		t.Fatalf("fault-free step allocates: %v allocs per 1000 steps, want 0", avg)
	}
	// AllocsPerRun calls f once more as a warm-up before its 50 runs.
	if want := int64(10_000 + 51*1_000); m.Stats.DynInstrs != want {
		t.Fatalf("ran %d instructions, want %d", m.Stats.DynInstrs, want)
	}
	if m.halted {
		t.Fatal("machine halted during measurement; trip count too small")
	}
}
