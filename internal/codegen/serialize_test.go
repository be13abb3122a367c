package codegen_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/isa"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

func compileWorkload(t *testing.T, w workloads.Workload, mo codegen.ModuleOptions) (*codegen.Program, *codegen.BuildStats) {
	t.Helper()
	p, st, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	return p, st
}

// TestSerializeRoundTrip pins the codec against every workload in the
// suite under both pipelines: decode(encode(p)) must DeepEqual the
// original and re-encode byte-identically (determinism).
func TestSerializeRoundTrip(t *testing.T) {
	modes := []struct {
		name string
		mo   codegen.ModuleOptions
	}{
		{"conventional", codegen.ModuleOptions{Core: core.DefaultOptions()}},
		{"idempotent", codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}},
	}
	for _, w := range workloads.All() {
		for _, m := range modes {
			t.Run(w.Name+"/"+m.name, func(t *testing.T) {
				p, st := compileWorkload(t, w, m.mo)
				enc := codegen.EncodeProgram(p, st)
				p2, st2, err := codegen.DecodeProgram(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(p, p2) {
					t.Fatalf("program round-trip mismatch")
				}
				if !reflect.DeepEqual(st, st2) {
					t.Fatalf("stats round-trip mismatch:\n got %+v\nwant %+v", st2, st)
				}
				enc2 := codegen.EncodeProgram(p2, st2)
				if !bytes.Equal(enc, enc2) {
					t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(enc), len(enc2))
				}
			})
		}
	}
}

// TestSerializeDecodedProgramRuns checks a decoded Program behaves
// identically on the machine: same result and dynamic statistics.
func TestSerializeDecodedProgramRuns(t *testing.T) {
	for _, name := range []string{"mcf", "canneal"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		p, st := compileWorkload(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
		p2, _, err := codegen.DecodeProgram(codegen.EncodeProgram(p, st))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		m1 := machine.New(p, machine.Config{BufferStores: true})
		r1, err := m1.Run(w.Args...)
		if err != nil {
			t.Fatalf("run original: %v", err)
		}
		m2 := machine.New(p2, machine.Config{BufferStores: true})
		r2, err := m2.Run(w.Args...)
		if err != nil {
			t.Fatalf("run decoded: %v", err)
		}
		if r1 != r2 {
			t.Fatalf("%s: result differs: %d vs %d", name, r1, r2)
		}
		if m1.Stats.DynInstrs != m2.Stats.DynInstrs || m1.Stats.Cycles != m2.Stats.Cycles {
			t.Fatalf("%s: dynamic stats differ", name)
		}
	}
}

// TestSerializeRejectsCorrupt exercises the strict-decode contract:
// truncations and trailing garbage must error, never panic.
func TestSerializeRejectsCorrupt(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	p, st := compileWorkload(t, w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	enc := codegen.EncodeProgram(p, st)

	if _, _, err := codegen.DecodeProgram(nil); err == nil {
		t.Fatal("decode of empty input succeeded")
	}
	// Every truncation point must fail cleanly (sampled stride keeps the
	// test fast; includes cutting inside varints, strings and floats).
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := codegen.DecodeProgram(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(enc))
		}
	}
	if _, _, err := codegen.DecodeProgram(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	// A length prefix the input cannot hold fails before anything is sized
	// from it: 1<<20 instructions would take ~56 MB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := codegen.DecodeProgram(binary.AppendUvarint(nil, 1<<20+1))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
		t.Fatalf("oversized instruction count: err %v after allocating %d bytes", err, grew)
	}
	// A flipped length prefix near the front must not OOM or panic.
	mut := append([]byte{}, enc...)
	mut[0] ^= 0x7f
	if _, _, err := codegen.DecodeProgram(mut); err == nil {
		// A flip may legitimately still parse if it lands in a value
		// field; the guarantee under test is only "no panic", which the
		// deferred recover in DecodeProgram converts to err. Re-encode
		// equality distinguishes a silent corruption from a lucky parse.
		p2, st2, _ := codegen.DecodeProgram(mut)
		if p2 != nil && bytes.Equal(codegen.EncodeProgram(p2, st2), enc) {
			t.Fatal("corrupt input decoded to the original artifact")
		}
	}
}

// TestCodecFieldPins fails when any serialized struct gains a field
// without the codec (and CodecVersion) being updated. Extend the codec
// in serialize.go, bump CodecVersion, then update the pin here.
func TestCodecFieldPins(t *testing.T) {
	pins := []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"isa.Instr", reflect.TypeOf(isa.Instr{}), 9},
		{"codegen.Program", reflect.TypeOf(codegen.Program{}), 10},
		{"codegen.BuildStats", reflect.TypeOf(codegen.BuildStats{}), 6},
		{"codegen.FuncConstruction", reflect.TypeOf(codegen.FuncConstruction{}), 3},
		{"codegen.AntidepInfo", reflect.TypeOf(codegen.AntidepInfo{}), 3},
		{"core.Stats", reflect.TypeOf(core.Stats{}), 12},
		{"ir.GlobalVar", reflect.TypeOf(ir.GlobalVar{}), 3},
	}
	for _, p := range pins {
		if got := p.typ.NumField(); got != p.want {
			t.Errorf("%s has %d fields, codec encodes %d — extend serialize.go, bump CodecVersion, then update this pin",
				p.name, got, p.want)
		}
	}
}
