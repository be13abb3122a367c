package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/workloads"
)

// build is one named compile configuration.
type build struct {
	name string
	mo   codegen.ModuleOptions
}

// matrix is the ModuleOptions grid every workload must verify cleanly
// under: the paper's default configuration plus the scheme variants that
// change region shape (pure-call regions, no unroll, bounded regions, no
// loop heuristic).
var matrix = []build{
	{"default", codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}},
	{"purecalls", codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), PureCalls: true}},
	{"nounroll", codegen.ModuleOptions{Idempotent: true,
		Core: core.Options{LoopHeuristic: true, RedElim: true, CutAtCalls: true}}},
	{"maxregion8", codegen.ModuleOptions{Idempotent: true,
		Core: func() core.Options { o := core.DefaultOptions(); o.MaxRegionSize = 8; return o }()}},
	// The other MaxRegionSize tiers the service's load palette requests:
	// mid-size bounds split computations mid-expression, stranding
	// constants and spilled pointers on the far side of a MARK — the cases
	// the pre-pass (prov.go) exists for.
	{"maxregion16", codegen.ModuleOptions{Idempotent: true,
		Core: func() core.Options { o := core.DefaultOptions(); o.MaxRegionSize = 16; return o }()}},
	{"maxregion32", codegen.ModuleOptions{Idempotent: true,
		Core: func() core.Options { o := core.DefaultOptions(); o.MaxRegionSize = 32; return o }()}},
	{"maxregion64", codegen.ModuleOptions{Idempotent: true,
		Core: func() core.Options { o := core.DefaultOptions(); o.MaxRegionSize = 64; return o }()}},
	{"noloopheur", codegen.ModuleOptions{Idempotent: true,
		Core: core.Options{RedElim: true, UnrollLoops: true, CutAtCalls: true}}},
	{"redelim-off", codegen.ModuleOptions{Idempotent: true,
		Core: func() core.Options { o := core.DefaultOptions(); o.RedElim = false; return o }()}},
}

// compileBuilds are the ten builds of the compile benchmark's matrix, in
// its order: the nine option sets above, then the conventional build.
var compileBuilds = append(matrix[:len(matrix):len(matrix)], build{"conventional", codegen.ModuleOptions{Core: core.DefaultOptions()}})

func compile(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions) *codegen.Program {
	t.Helper()
	p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	return p
}

// TestWorkloadMatrixClean is the no-false-positive gate: correct
// compiler output over the full workload × ModuleOptions matrix must
// verify with zero violations. It also pins the artifacts: the combined
// sha256 over each build's encoded program, in the compile benchmark's
// order (workload, then compileBuilds), must equal the benchmark's pinned
// compile digest, so a compiler change that alters artifact bytes fails
// tier-1 and not only a benchmark run.
func TestWorkloadMatrixClean(t *testing.T) {
	ws := workloads.All()
	builds := compileBuilds
	sums := make([][][sha256.Size]byte, len(builds))
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		h := sha256.New()
		for j := range ws {
			for i := range builds {
				h.Write(sums[i][j][:])
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), pinnedCompileDigest(t); got != want {
			t.Errorf("matrix artifact digest %s, want %s (bench/testdata/expected.json)", got, want)
		}
	})
	for i, m := range builds {
		i, m := i, m
		sums[i] = make([][sha256.Size]byte, len(ws))
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			for j, w := range ws {
				p, st, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, m.mo)
				if err != nil {
					t.Fatalf("compile %s: %v", w.Name, err)
				}
				sums[i][j] = sha256.Sum256(codegen.EncodeProgram(p, st))
				if !m.mo.Idempotent {
					continue
				}
				rep := Verify(p)
				if rep.Skipped {
					t.Errorf("%s/%s: unexpectedly skipped (marks=%d)", m.name, w.Name, p.Marks)
					continue
				}
				if !rep.OK() {
					t.Errorf("%s/%s: %s", m.name, w.Name, rep.Render(p))
				}
				if rep.Regions < 2 {
					t.Errorf("%s/%s: only %d regions analyzed", m.name, w.Name, rep.Regions)
				}
			}
		})
	}
}

// pinnedCompileDigest reads the compile digest the benchmark checks its
// artifacts against.
func pinnedCompileDigest(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "bench", "testdata", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Compile string `json:"compile"`
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatalf("expected.json: %v", err)
	}
	return exp.Compile
}

// TestNonIdempotentSkipped: markless programs have no contract to check.
func TestNonIdempotentSkipped(t *testing.T) {
	w, _ := workloads.ByName("bzip2")
	p := compile(t, w, codegen.ModuleOptions{Idempotent: false, Core: core.DefaultOptions()})
	rep := Verify(p)
	if !rep.Skipped || !rep.OK() {
		t.Fatalf("non-idempotent build should be skipped+ok, got %s", rep.Summary())
	}
}

// TestRelaxedAllocDifferential: with the §4.4 allocation constraint
// disabled, live-in registers are redefined in-region and the verifier
// must notice on at least one workload — the ablation doubles as a
// sensitivity check that the analysis is not vacuous.
func TestRelaxedAllocDifferential(t *testing.T) {
	found := 0
	for _, w := range workloads.All() {
		mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true}
		p := compile(t, w, mo)
		rep := Verify(p)
		if !rep.OK() {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("relaxed-alloc ablation produced zero violations across all workloads; verifier is blind to register clobbers")
	}
	t.Logf("relaxed-alloc: %d/%d workloads rejected", found, len(workloads.All()))
}

// mutate returns a copy of p with its instruction stream edited by fn.
func mutate(p *codegen.Program, fn func(instrs []isa.Instr) bool) (*codegen.Program, bool) {
	q := *p
	q.Instrs = append([]isa.Instr(nil), p.Instrs...)
	ok := fn(q.Instrs)
	return &q, ok
}

func hasKind(rep *Report, k Kind) bool {
	for _, v := range rep.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

// TestMutationDropMark: removing a MARK merges two regions; the merged
// region must expose a clobber somewhere across the suite.
func TestMutationDropMark(t *testing.T) {
	rejected := 0
	for _, w := range workloads.All() {
		p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
		// Drop each MARK in turn until one mutation is rejected.
		for pc, in := range p.Instrs {
			if in.Op != isa.MARK {
				continue
			}
			q, _ := mutate(p, func(instrs []isa.Instr) bool {
				instrs[pc] = isa.Instr{Op: isa.NOP}
				return true
			})
			q.Marks--
			if q.Marks == 0 {
				continue
			}
			if rep := Verify(q); !rep.OK() {
				rejected++
				break
			}
		}
		if rejected > 0 {
			break
		}
	}
	if rejected == 0 {
		t.Fatal("no dropped-MARK mutation was rejected on any workload")
	}
}

// TestMutationRetargetSpillStore: pointing a spill store at a slot that
// was read earlier in the region clobbers live-in state.
func TestMutationRetargetSpillStore(t *testing.T) {
	rejected := false
	for _, w := range workloads.All() {
		p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
		// Find a region with a spill load [sp,#a] followed by a spill
		// store [sp,#b], b != a, with no intervening MARK; retarget the
		// store to slot a.
		for pc, in := range p.Instrs {
			if in.Op != isa.LDR || in.Rs1 != isa.SP {
				continue
			}
			for j := pc + 1; j < len(p.Instrs) && p.Instrs[j].Op != isa.MARK &&
				p.Instrs[j].Op != isa.RET && p.Instrs[j].Op != isa.CALL &&
				p.Instrs[j].Op != isa.B && p.Instrs[j].Op != isa.CBZ &&
				p.Instrs[j].Op != isa.CBNZ; j++ {
				sj := p.Instrs[j]
				if sj.Op == isa.STR && sj.Rs1 == isa.SP && sj.Imm != in.Imm {
					q, _ := mutate(p, func(instrs []isa.Instr) bool {
						instrs[j].Imm = in.Imm
						return true
					})
					if rep := Verify(q); hasKind(rep, KindClobberMem) {
						rejected = true
					}
				}
				if rejected {
					break
				}
			}
			if rejected {
				break
			}
		}
		if rejected {
			break
		}
	}
	if !rejected {
		t.Fatal("no retargeted spill store was rejected")
	}
}

// TestMutationBadBranch: a branch retargeted outside the program is
// structural damage, not a crash.
func TestMutationBadBranch(t *testing.T) {
	w, _ := workloads.ByName("bzip2")
	p := compile(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	q, ok := mutate(p, func(instrs []isa.Instr) bool {
		for i := range instrs {
			if instrs[i].Op == isa.B {
				instrs[i].Imm = int64(len(instrs)) + 99
				return true
			}
		}
		return false
	})
	if !ok {
		t.Skip("no unconditional branch to retarget")
	}
	rep := Verify(q)
	if !hasKind(rep, KindBadBranch) {
		t.Fatalf("retargeted branch not flagged: %s", rep.Summary())
	}
}

// FuzzVerifyArtifact: idemd re-verifies artifacts it reads back from
// disk, so Verify and Render see whatever bytes DecodeProgram accepts.
// Neither may panic. Every accepted artifact must also re-encode to
// bytes that decode to the same program and stats.
func FuzzVerifyArtifact(f *testing.F) {
	for _, name := range []string{"mcf", "bzip2"} {
		w, _ := workloads.ByName(name)
		for _, m := range matrix {
			if m.name != "default" && m.name != "maxregion8" {
				continue
			}
			p, st, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, m.mo)
			if err != nil {
				f.Fatalf("compile %s: %v", name, err)
			}
			f.Add(codegen.EncodeProgram(p, st))
			if name != "mcf" || m.name != "default" {
				continue
			}
			// Structural damage the decoder lets through: a register
			// operand outside the register file, an entry outside the
			// instruction stream.
			badReg, _ := mutate(p, func(instrs []isa.Instr) bool {
				for i := range instrs {
					if instrs[i].Op == isa.LDR {
						instrs[i].Rs1 = 200
						return true
					}
				}
				return false
			})
			f.Add(codegen.EncodeProgram(badReg, st))
			badEntry := *p
			badEntry.Entry = -3
			f.Add(codegen.EncodeProgram(&badEntry, st))
			// A global's address in a float register, loaded through:
			// only malformed artifacts give a float register a fact, so
			// nothing else runs the pre-pass's float facts.
			g := p.GlobalEnd - 1
			for _, base := range p.GlobalBase {
				g = min(g, base)
			}
			floatPtr, _ := mutate(p, func(instrs []isa.Instr) bool {
				for i := p.FuncEntry[p.Main]; i+2 < len(instrs); i++ {
					if straightLine(instrs[i : i+3]) {
						instrs[i] = isa.Instr{Op: isa.MOVI, Rd: isa.F(3), Imm: g}
						instrs[i+1] = isa.Instr{Op: isa.MOV, Rd: isa.R1, Rs1: isa.F(3)}
						instrs[i+2] = isa.Instr{Op: isa.LDR, Rd: isa.R2, Rs1: isa.R1}
						return true
					}
				}
				return false
			})
			f.Add(codegen.EncodeProgram(floatPtr, st))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, st, err := codegen.DecodeProgram(data)
		if err != nil {
			return
		}
		Verify(p).Render(p)
		if len(structural(p)) == 0 {
			checkProvFixpoint(t, "fuzz", p)
		}
		enc := codegen.EncodeProgram(p, st)
		p2, st2, err := codegen.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		// The encodings compare the float fields bit for bit; DeepEqual,
		// which never equates NaNs, compares the rest with them cleared.
		if !bytes.Equal(codegen.EncodeProgram(p2, st2), enc) {
			t.Fatal("re-encoded artifact decodes to a different encoding")
		}
		clearFloats(p, st)
		clearFloats(p2, st2)
		if !reflect.DeepEqual(p, p2) || !reflect.DeepEqual(st, st2) {
			t.Fatalf("re-encoded artifact decodes to a different program or stats")
		}
	})
}

// straightLine reports whether none of instrs is a branch, a MARK or
// protected instrumentation, so overwriting them keeps the control flow.
func straightLine(instrs []isa.Instr) bool {
	for _, in := range instrs {
		if in.IsBranch() || in.Op == isa.MARK || in.Op == isa.HALT || in.Shadow != 0 || in.Meta {
			return false
		}
	}
	return true
}

// clearFloats zeroes the float fields of a program and its stats.
func clearFloats(p *codegen.Program, st *codegen.BuildStats) {
	for i := range p.Instrs {
		p.Instrs[i].FImm = 0
	}
	for _, fc := range st.Construction {
		fc.Stats.AvgRegionSize = 0
	}
}
