package machine

import (
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// rawProgram wraps a hand-written instruction sequence (ending in HALT)
// into a runnable Program.
func rawProgram(ins ...isa.Instr) *codegen.Program {
	return &codegen.Program{
		Instrs:     ins,
		Entry:      0,
		FuncEntry:  map[string]int{},
		GlobalBase: map[string]int64{},
		FuncOf:     make([]string, len(ins)),
		MemWords:   256,
	}
}

func cycles(t *testing.T, cfg Config, ins ...isa.Instr) int64 {
	t.Helper()
	m := New(rawProgram(ins...), cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Stats.Cycles
}

func TestDualIssueIndependentOps(t *testing.T) {
	// Two independent MOVIs dual-issue: 2 instructions in 1 cycle (plus
	// the HALT's cycle).
	pair := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.MOVI, Rd: isa.R2, Imm: 2},
		isa.Instr{Op: isa.HALT},
	)
	quad := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.MOVI, Rd: isa.R2, Imm: 2},
		isa.Instr{Op: isa.MOVI, Rd: isa.R3, Imm: 3},
		isa.Instr{Op: isa.MOVI, Rd: isa.R4, Imm: 4},
		isa.Instr{Op: isa.HALT},
	)
	if quad-pair != 1 {
		t.Fatalf("4 independent ops should cost exactly 1 cycle more than 2: %d vs %d", quad, pair)
	}
}

func TestDependencyStalls(t *testing.T) {
	// A dependent chain of MULs (latency 3) costs ~3 cycles per link; an
	// independent set costs ~0.5 per op.
	chain := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 3},
		isa.Instr{Op: isa.MUL, Rd: isa.R1, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.MUL, Rd: isa.R1, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.MUL, Rd: isa.R1, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.HALT},
	)
	indep := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 3},
		isa.Instr{Op: isa.MUL, Rd: isa.R2, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.MUL, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.MUL, Rd: isa.R4, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.HALT},
	)
	if chain <= indep+2 {
		t.Fatalf("dependent MUL chain (%d) should stall well beyond independent MULs (%d)", chain, indep)
	}
}

func TestSingleMemoryPort(t *testing.T) {
	// Two loads cannot issue in the same cycle.
	base := int64(10)
	threeLoads := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: base},
		isa.Instr{Op: isa.LDR, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		isa.Instr{Op: isa.LDR, Rd: isa.R3, Rs1: isa.R1, Imm: 1},
		isa.Instr{Op: isa.LDR, Rd: isa.R4, Rs1: isa.R1, Imm: 2},
		isa.Instr{Op: isa.HALT},
	)
	loadPlusAlus := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: base},
		isa.Instr{Op: isa.LDR, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		isa.Instr{Op: isa.MOVI, Rd: isa.R3, Imm: 7},
		isa.Instr{Op: isa.MOVI, Rd: isa.R4, Imm: 8},
		isa.Instr{Op: isa.HALT},
	)
	if threeLoads <= loadPlusAlus {
		t.Fatalf("three loads (%d cycles) must exceed load+2 alus (%d cycles): one memory port", threeLoads, loadPlusAlus)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// A forward conditional branch that IS taken mispredicts (static
	// not-taken prediction) and costs the penalty.
	taken := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.CBNZ, Rs1: isa.R1, Imm: 3}, // forward, taken → mispredict
		isa.Instr{Op: isa.NOP},
		isa.Instr{Op: isa.HALT},
	)
	notTaken := cycles(t, Config{},
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 0},
		isa.Instr{Op: isa.CBNZ, Rs1: isa.R1, Imm: 3}, // forward, not taken → correct
		isa.Instr{Op: isa.NOP},
		isa.Instr{Op: isa.HALT},
	)
	if taken-notTaken < mispredictPenalty-2 {
		t.Fatalf("mispredict cost %d, want ≈%d", taken-notTaken, mispredictPenalty)
	}
	m := New(rawProgram(
		isa.Instr{Op: isa.MOVI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.CBNZ, Rs1: isa.R1, Imm: 3},
		isa.Instr{Op: isa.NOP},
		isa.Instr{Op: isa.HALT},
	), Config{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", m.Stats.Mispredicts)
	}
}

func TestCacheMissLatency(t *testing.T) {
	cfg := Config{Cache: CacheConfig{Sets: 4, Ways: 1, LineWords: 2, MissPenalty: 20}}
	// Load then immediately use the result: a miss delays the consumer.
	prog := []isa.Instr{
		{Op: isa.MOVI, Rd: isa.R1, Imm: 10},
		{Op: isa.LDR, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		{Op: isa.ADD, Rd: isa.R3, Rs1: isa.R2, Rs2: isa.R2},
		{Op: isa.HALT},
	}
	miss := cycles(t, cfg, prog...)
	flat := cycles(t, Config{}, prog...)
	if miss-flat < 15 {
		t.Fatalf("cold miss should add ~20 cycles: %d vs %d", miss, flat)
	}
	m := New(rawProgram(prog...), cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.CacheMisses != 1 || m.Stats.CacheHits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", m.Stats.CacheHits, m.Stats.CacheMisses)
	}
}

func TestCacheHitsOnReuse(t *testing.T) {
	cfg := Config{Cache: CacheConfig{Sets: 4, Ways: 2, LineWords: 2, MissPenalty: 20}}
	prog := []isa.Instr{
		{Op: isa.MOVI, Rd: isa.R1, Imm: 10},
		{Op: isa.LDR, Rd: isa.R2, Rs1: isa.R1, Imm: 0},
		{Op: isa.LDR, Rd: isa.R3, Rs1: isa.R1, Imm: 0},
		{Op: isa.LDR, Rd: isa.R4, Rs1: isa.R1, Imm: 1}, // same 2-word line
		{Op: isa.HALT},
	}
	m := New(rawProgram(prog...), cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.CacheMisses != 1 || m.Stats.CacheHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", m.Stats.CacheHits, m.Stats.CacheMisses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 1 set, 2 ways, 1-word lines: A B A C evicts B (LRU), not A.
	c := newDCache(CacheConfig{Sets: 1, Ways: 2, LineWords: 1, MissPenalty: 1})
	if c.access(1) {
		t.Fatal("cold A should miss")
	}
	if c.access(2) {
		t.Fatal("cold B should miss")
	}
	if !c.access(1) {
		t.Fatal("A should hit")
	}
	if c.access(3) {
		t.Fatal("cold C should miss")
	}
	if !c.access(1) {
		t.Fatal("A should survive (B was LRU)")
	}
	if c.access(2) {
		t.Fatal("B should have been evicted")
	}
}

// TestCacheRejectsNonPowerOfTwo: the cache indexes by shift and mask, so
// a set count or line size that is not a power of two must fail loudly
// at construction instead of silently mapping lines to the wrong sets.
func TestCacheRejectsNonPowerOfTwo(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Sets: 3, Ways: 2, LineWords: 4, MissPenalty: 1},
		{Sets: 4, Ways: 2, LineWords: 6, MissPenalty: 1},
		{Sets: 4, Ways: 2, LineWords: 0, MissPenalty: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newDCache(%+v) did not panic", cfg)
				}
			}()
			newDCache(cfg)
		}()
	}
}

// TestPipeSlotsStayInModel: a register or shadow bank outside the model,
// which only a corrupt artifact carries, decodes to a sentinel slot
// instead of aliasing another register's availability.
func TestPipeSlotsStayInModel(t *testing.T) {
	d := decodeOne(isa.Instr{Op: isa.ADD, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2, Shadow: 3}, 0)
	if d.psrc0 != zeroSlot || d.psrc1 != zeroSlot || d.pdst != sinkSlot {
		t.Errorf("bank 3: slots %d/%d -> %d, want sentinels", d.psrc0, d.psrc1, d.pdst)
	}
	d = decodeOne(isa.Instr{Op: isa.ADD, Rd: 60, Rs1: 200, Rs2: isa.R2, Shadow: 2}, 0)
	if d.psrc0 != zeroSlot || d.psrc1 != uint8(isa.R2)+2*isa.NumRegs || d.pdst != sinkSlot {
		t.Errorf("bad registers: slots %d/%d -> %d", d.psrc0, d.psrc1, d.pdst)
	}
}

func TestMarkCostsOneSlot(t *testing.T) {
	// MARKs consume issue bandwidth like the paper's mov-rp.
	with := cycles(t, Config{},
		isa.Instr{Op: isa.MARK}, isa.Instr{Op: isa.MARK},
		isa.Instr{Op: isa.MARK}, isa.Instr{Op: isa.MARK},
		isa.Instr{Op: isa.HALT},
	)
	without := cycles(t, Config{}, isa.Instr{Op: isa.HALT})
	if with-without < 2 {
		t.Fatalf("4 marks should cost ≥2 cycles on a 2-wide machine: %d vs %d", with, without)
	}
}
