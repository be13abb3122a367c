package verify

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/workloads"
)

// compileAll builds every workload under each option set, option-major,
// on GOMAXPROCS workers.
func compileAll(tb testing.TB, mos []codegen.ModuleOptions) []*codegen.Program {
	tb.Helper()
	ws := workloads.All()
	progs := make([]*codegen.Program, len(mos)*len(ws))
	errs := make([]error, len(progs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				w := ws[i%len(ws)]
				progs[i], _, errs[i] = codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mos[i/len(ws)])
			}
		}()
	}
	for i := range progs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("compile %s: %v", ws[i%len(ws)].Name, err)
		}
	}
	return progs
}

// matrixPrograms compiles the 9×31 matrix, in matrix then workload order.
func matrixPrograms(tb testing.TB) []*codegen.Program {
	mos := make([]codegen.ModuleOptions, len(matrix))
	for i, m := range matrix {
		mos[i] = m.mo
	}
	return compileAll(tb, mos)
}

type namedProgram struct {
	name string
	p    *codegen.Program
}

// verdictCorpus is the verdict golden's input: the matrix, the
// relaxed-alloc builds, and every stride'th of two mutant kinds on the
// default builds — each MARK replaced by NOP, and each SP-relative STR
// retargeted one word up. Both mutant kinds break the criterion in some
// programs and not in others, so the corpus pins rejections as well as
// acceptances.
func verdictCorpus(tb testing.TB, stride int) []namedProgram {
	ws := workloads.All()
	progs := matrixPrograms(tb)
	relaxed := compileAll(tb, []codegen.ModuleOptions{{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true}})
	var corpus []namedProgram
	for i, p := range progs {
		corpus = append(corpus, namedProgram{matrix[i/len(ws)].name + "/" + ws[i%len(ws)].Name, p})
	}
	for i, p := range relaxed {
		corpus = append(corpus, namedProgram{"relaxed/" + ws[i].Name, p})
	}
	var mutants []namedProgram
	for i, w := range ws {
		p := progs[i] // matrix[0] is the default build
		for pc, in := range p.Instrs {
			if in.Op == isa.MARK && in.Shadow == 0 {
				q, _ := mutate(p, func(instrs []isa.Instr) bool { instrs[pc] = isa.Instr{Op: isa.NOP}; return true })
				q.Marks--
				mutants = append(mutants, namedProgram{fmt.Sprintf("dropmark/%s@%d", w.Name, pc), q})
			}
		}
		for pc, in := range p.Instrs {
			if in.Op == isa.STR && in.Rs1 == isa.SP {
				q, _ := mutate(p, func(instrs []isa.Instr) bool { instrs[pc].Imm++; return true })
				mutants = append(mutants, namedProgram{fmt.Sprintf("spstore/%s@%d", w.Name, pc), q})
			}
		}
	}
	for i := 0; i < len(mutants); i += stride {
		corpus = append(corpus, mutants[i])
	}
	return corpus
}

// verdictLine renders what the golden pins about one report: region
// count, skip flag and the sorted (region, pc, kind, loc) violations.
// The Loc text is pinned because Summary prints the first one, and the
// compile cache keeps that text as a rejected build's error.
func verdictLine(name string, rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s regions=%d skipped=%t", name, rep.Regions, rep.Skipped)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, " %d:%d:%s:%s", v.Region, v.PC, v.Kind, v.Loc)
	}
	return b.String()
}

// verdictStride samples the mutants for the golden; the full corpus
// (stride 1) is ~2000 programs.
const verdictStride = 8

// TestVerdictGolden pins the verifier's verdicts on a fixed corpus, so a
// change to how the analysis is computed can be shown not to change what
// it decides. Only an intended change of verdicts may rewrite
// testdata/verdicts.txt, with the "got" lines this test reports.
func TestVerdictGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	corpus := verdictCorpus(t, verdictStride)
	if len(corpus) != len(wantLines) {
		t.Fatalf("corpus has %d programs, golden %d", len(corpus), len(wantLines))
	}
	for i, np := range corpus {
		if got := verdictLine(np.name, Verify(np.p)); got != wantLines[i] {
			t.Errorf("verdict changed:\n got  %s\n want %s", got, wantLines[i])
		}
	}
}
