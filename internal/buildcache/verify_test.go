package buildcache

import (
	"context"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/isa"
	"idemproc/internal/verify"
	"idemproc/internal/workloads"
)

func TestParseVerifyMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VerifyMode
	}{{"", VerifyOff}, {"off", VerifyOff}, {"sampled", VerifySampled}, {"full", VerifyFull}} {
		got, err := ParseVerifyMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVerifyMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("VerifyMode(%v).String() empty", got)
		}
	}
	if _, err := ParseVerifyMode("always"); err == nil {
		t.Error("ParseVerifyMode(always) should fail")
	}
}

// invalidMutant compiles w and NOPs out a MARK such that the validator
// rejects the result — a decode-clean but semantically broken program.
func invalidMutant(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions) *codegen.Program {
	t.Helper()
	p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	for pc, in := range p.Instrs {
		if in.Op != isa.MARK || in.Shadow != 0 {
			continue
		}
		q := *p
		q.Instrs = append([]isa.Instr(nil), p.Instrs...)
		q.Instrs[pc] = isa.Instr{Op: isa.NOP}
		q.Marks--
		if q.Marks > 0 && !verify.Verify(&q).OK() {
			return &q
		}
	}
	return nil
}

// TestVerifyRejectsInvalidArtifact: a disk artifact that decodes cleanly
// but fails verification is pruned and the request recompiles — never an
// error — with the rejection counted. Structural damage the decoder lets
// through (a register operand outside the register file, an entry
// outside the instruction stream) takes the same path earlier: the disk
// tier's load check counts it as corrupt before verify sees it.
func TestVerifyRejectsInvalidArtifact(t *testing.T) {
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	var w workloads.Workload
	var dropped *codegen.Program
	for _, cand := range workloads.All() {
		if m := invalidMutant(t, cand, mo); m != nil {
			w, dropped = cand, m
			break
		}
	}
	if dropped == nil {
		t.Fatal("no workload yields a rejecting dropped-MARK mutant")
	}
	p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	badReg := *p
	badReg.Instrs = append([]isa.Instr(nil), p.Instrs...)
	for i, in := range badReg.Instrs {
		if in.Op == isa.LDR {
			badReg.Instrs[i].Rs1 = 200
			break
		}
	}
	badEntry := *p
	badEntry.Entry = len(p.Instrs) + 7

	for _, tc := range []struct {
		name    string
		mutant  *codegen.Program
		corrupt bool // caught by the disk tier's load check, not by verify
	}{
		{"dropped-mark", dropped, false},
		{"register-out-of-range", &badReg, true},
		{"entry-out-of-range", &badEntry, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testRejectedArtifact(t, w, mo, tc.mutant, tc.corrupt) })
	}
}

// testRejectedArtifact plants mutant as w's disk artifact and checks that
// a full-verify cache prunes it, recompiles, and writes a clean artifact
// back. A corrupt mutant is pruned at load, so verify checks only the
// fresh compile; any other is pruned by verify.
func testRejectedArtifact(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions, mutant *codegen.Program, corrupt bool) {
	dir := t.TempDir()
	c := NewBoundedDisk(0, dir)
	c.SetVerifyMode(VerifyFull)
	key := KeyOf(w, mo)
	if err := c.disk.store(key, mutant, &codegen.BuildStats{}); err != nil {
		t.Fatalf("store mutant artifact: %v", err)
	}

	p, _, err := c.Compile(context.Background(), w, mo)
	if err != nil {
		t.Fatalf("Compile after artifact rejection: %v", err)
	}
	if rep := verify.Verify(p); !rep.OK() {
		t.Fatalf("recompiled program fails verification: %s", rep.Summary())
	}
	if !c.Verified(w, mo) {
		t.Error("recompiled entry not marked verified")
	}

	st := c.Stats()
	rejected, diskCorrupt := int64(1), int64(0)
	if corrupt {
		rejected, diskCorrupt = 0, 1
	}
	if st.VerifyRejectedArtifacts != rejected {
		t.Errorf("VerifyRejectedArtifacts = %d, want %d", st.VerifyRejectedArtifacts, rejected)
	}
	if st.VerifyFailed != rejected {
		t.Errorf("VerifyFailed = %d, want %d (the artifact)", st.VerifyFailed, rejected)
	}
	if st.VerifyChecked != 1+rejected {
		t.Errorf("VerifyChecked = %d, want %d (the artifact if it loads, and the fresh compile)", st.VerifyChecked, 1+rejected)
	}
	if st.DiskCorrupt != diskCorrupt {
		t.Errorf("DiskCorrupt = %d, want %d", st.DiskCorrupt, diskCorrupt)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (rejection falls through to the compiler)", st.Compiles)
	}
	if st.DiskHits != 0 {
		t.Errorf("DiskHits = %d, want 0 (rejected load re-booked as a miss)", st.DiskHits)
	}

	// The pruned artifact is replaced by the fresh compile's write-behind;
	// a new cache must now serve a verified program from disk alone.
	flushDisk(t, c)
	c2 := NewBoundedDisk(0, dir)
	c2.SetVerifyMode(VerifyFull)
	if _, _, err := c2.Compile(context.Background(), w, mo); err != nil {
		t.Fatalf("Compile from replaced artifact: %v", err)
	}
	st2 := c2.Stats()
	if st2.Compiles != 0 || st2.DiskHits != 1 || st2.VerifyRejectedArtifacts != 0 {
		t.Errorf("replaced artifact not served cleanly: %+v", st2)
	}
	if !c2.Verified(w, mo) {
		t.Error("artifact-served entry not marked verified")
	}
}

// TestVerifySampledDeterministic: sampled mode checks the same keys on
// every run, and off mode checks nothing.
func TestVerifySampledDeterministic(t *testing.T) {
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	var sampledWorkload, unsampledWorkload *workloads.Workload
	for i := range workloads.All() {
		w := workloads.All()[i]
		if sampleKey(KeyOf(w, mo)) {
			if sampledWorkload == nil {
				sampledWorkload = &w
			}
		} else if unsampledWorkload == nil {
			unsampledWorkload = &w
		}
	}

	c := New()
	c.SetVerifyMode(VerifySampled)
	checked := int64(0)
	if sampledWorkload != nil {
		if _, _, err := c.Compile(context.Background(), *sampledWorkload, mo); err != nil {
			t.Fatal(err)
		}
		checked++
		if !c.Verified(*sampledWorkload, mo) {
			t.Errorf("sampled workload %s not verified", sampledWorkload.Name)
		}
	}
	if unsampledWorkload != nil {
		if _, _, err := c.Compile(context.Background(), *unsampledWorkload, mo); err != nil {
			t.Fatal(err)
		}
		if c.Verified(*unsampledWorkload, mo) {
			t.Errorf("unsampled workload %s unexpectedly verified", unsampledWorkload.Name)
		}
	}
	if st := c.Stats(); st.VerifyChecked != checked || st.VerifyFailed != 0 {
		t.Errorf("sampled stats = %+v, want checked=%d failed=0", st, checked)
	}

	off := New()
	if w := sampledWorkload; w != nil {
		if _, _, err := off.Compile(context.Background(), *w, mo); err != nil {
			t.Fatal(err)
		}
		if st := off.Stats(); st.VerifyChecked != 0 {
			t.Errorf("off-mode cache checked %d programs", st.VerifyChecked)
		}
		if off.Verified(*w, mo) {
			t.Error("off-mode entry marked verified")
		}
	}
}

// TestVerifyFullSkipsNonIdempotent: markless and relaxed-alloc builds
// have no contract to check and must not fail or count as checked.
func TestVerifyFullSkipsNonIdempotent(t *testing.T) {
	w, ok := workloads.ByName("bzip2")
	if !ok {
		t.Fatal("bzip2 workload missing")
	}
	c := New()
	c.SetVerifyMode(VerifyFull)
	for _, mo := range []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions(), RelaxedAlloc: true},
	} {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatalf("compile %+v: %v", mo, err)
		}
		if c.Verified(w, mo) {
			t.Errorf("uncheckable build %+v marked verified", mo)
		}
	}
	if st := c.Stats(); st.VerifyChecked != 0 || st.VerifyFailed != 0 {
		t.Errorf("uncheckable builds counted: %+v", st)
	}
}

// TestVerifyFullPassesSuite: the full workload suite compiles and
// verifies through the cache in full mode.
func TestVerifyFullPassesSuite(t *testing.T) {
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}
	c := New()
	c.SetVerifyMode(VerifyFull)
	for _, w := range workloads.All() {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !c.Verified(w, mo) {
			t.Errorf("%s: not verified in full mode", w.Name)
		}
	}
	st := c.Stats()
	if st.VerifyFailed != 0 {
		t.Errorf("full-mode suite: %+v", st)
	}
	if st.VerifyChecked != int64(len(workloads.All())) {
		t.Errorf("VerifyChecked = %d, want %d", st.VerifyChecked, len(workloads.All()))
	}
}
