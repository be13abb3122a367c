package verify

import (
	"runtime"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/workloads"
)

var reportSink *Report

// BenchmarkVerify checks the 279 matrix programs per op; the builds run
// before the timer starts. ns/program is ns/op divided by the program
// count.
func BenchmarkVerify(b *testing.B) {
	progs := matrixPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			reportSink = Verify(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(progs)), "ns/program")
}

// BenchmarkCompileMatrix compiles every workload under the ten
// compileBuilds per op, serially, from source to linked program, and
// verifies each idempotent program, as a full-verify compile cache does
// on a miss. ns/program is ns/op divided by the program count; profile
// the compiler with -cpuprofile or -memprofile on it.
func BenchmarkCompileMatrix(b *testing.B) {
	ws := workloads.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			for _, m := range compileBuilds {
				p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, m.mo)
				if err != nil {
					b.Fatalf("compile %s/%s: %v", m.name, w.Name, err)
				}
				if !m.mo.Idempotent {
					continue
				}
				if rep := Verify(p); !rep.OK() {
					b.Fatalf("%s/%s: %s", m.name, w.Name, rep.Summary())
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)*len(compileBuilds)), "ns/program")
}

// verifyAllocCeiling lies between the 664 allocations one Verify of astar
// makes since both fixpoints keep states only at block entries and the
// 3,625 it made with a state at every pc.
const verifyAllocCeiling = 800

// verifyBytesCeiling lies between the 0.49 MB one Verify of astar
// allocates since then and the 3.22 MB it allocated before. A 424-byte
// pre-pass state at each of astar's 742 pcs, rather than at its 123 block
// entries alone, would add 0.26 MB and cross it.
const verifyBytesCeiling = 600_000

// TestVerifyAllocs guards the verifier's allocation count and bytes on
// astar under the default options.
func TestVerifyAllocs(t *testing.T) {
	w, _ := workloads.ByName("astar")
	p := compile(t, w, matrix[0].mo)
	if n := testing.AllocsPerRun(5, func() { reportSink = Verify(p) }); n > verifyAllocCeiling {
		t.Fatalf("Verify(astar) allocates %.0f times, ceiling %d", n, verifyAllocCeiling)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		reportSink = Verify(p)
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > verifyBytesCeiling {
		t.Fatalf("Verify(astar) allocates %d bytes, ceiling %d", n, verifyBytesCeiling)
	}
}
