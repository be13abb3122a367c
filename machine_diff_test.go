// Differential pin of the simulator engine: every workload is executed
// under every recovery scheme (plus seeded fault injections on a small
// subset) and the resulting architectural state — statistics, register
// file, memory image, path histogram — is digested and compared against
// testdata/machine_digests.json, which was generated with the pre-
// predecode interpreter. Any semantic drift in the hot-loop rewrite
// (operand decode, store-buffer forwarding, fault scheduling, pipeline
// accounting) shows up here as a digest mismatch naming the exact
// (workload, scheme) cell that diverged.
//
// Regenerate with:  go test -run TestMachineStateDigests -update-digests .
// (only legitimate when a change intentionally alters simulator
// semantics; the whole point of the file is to make that loud.)
package idemproc

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"idemproc/internal/buildcache"
	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/machine_digests.json from the current engine")

const digestPath = "testdata/machine_digests.json"

// digest is the per-run state fingerprint: the exported machine.Snapshot
// (its JSON field names are pinned by the golden file, and the idemd
// service returns the same snapshots from /v1/simulate, so this test
// also pins the service's digest schema).
type digest = machine.Snapshot

func digestOf(m *machine.Machine, r0 uint64, err error) digest {
	return m.Snapshot(r0, err)
}

// schemeCase is one (binary, machine config) cell of the matrix.
type schemeCase struct {
	name  string
	idem  bool // compile the idempotent binary
	apply fault.Scheme
	doApp bool // run fault.Apply
	cfg   machine.Config
}

func schemeCases() []schemeCase {
	cache := machine.DefaultCache()
	return []schemeCase{
		{name: "plain", cfg: machine.Config{Cache: cache}},
		{name: "idem", idem: true, cfg: machine.Config{BufferStores: true, TrackPaths: true, Cache: cache}},
		{name: "dmr", doApp: true, apply: fault.SchemeDMR, cfg: machine.Config{Cache: cache}},
		{name: "tmr", doApp: true, apply: fault.SchemeTMR, cfg: machine.Config{Recovery: machine.RecoverTMR, Cache: cache}},
		{name: "cl", doApp: true, apply: fault.SchemeCheckpointLog, cfg: machine.Config{Recovery: machine.RecoverCheckpointLog, Cache: cache}},
		{name: "idem-rec", idem: true, doApp: true, apply: fault.SchemeIdempotence,
			cfg: machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence, Cache: cache}},
	}
}

// injectedWorkloads are the (small) workloads additionally digested with
// seeded fault injections armed, pinning the injection machinery itself.
var injectedWorkloads = []string{"mcf", "sjeng", "lbm"}

// injections is a fixed battery covering every fault model; steps and
// masks are deliberately mid-run primes so they land inside regions.
func injections() []fault.Injection {
	return []fault.Injection{
		{Model: fault.ModelRegisterBitFlip, Step: 101, Mask: 1 << 7},
		{Model: fault.ModelRegisterBurst, Step: 211, Mask: 0b111 << 12},
		{Model: fault.ModelMemoryWord, Step: 307, Addr: 5, Mask: 1 << 3},
		{Model: fault.ModelControlFlow, Step: 401},
		{Model: fault.ModelBoundary, Step: 149, Mask: 1 << 9},
		{Model: fault.ModelNested, Step: 173, Mask: 1 << 5, After: 1, NestedMask: 1 << 11},
	}
}

func buildFor(t testing.TB, cache *buildcache.Cache, w workloads.Workload, sc schemeCase) *codegen.Program {
	t.Helper()
	mo := codegen.ModuleOptions{Core: core.DefaultOptions(), Idempotent: sc.idem}
	p, _, err := cache.Compile(context.Background(), w, mo)
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", w.Name, sc.name, err)
	}
	if sc.doApp {
		p = fault.Apply(p, sc.apply)
	}
	return p
}

// TestMachineStateDigests runs the full matrix and compares digests.
func TestMachineStateDigests(t *testing.T) {
	cache := buildcache.New()
	type cell struct {
		key string
		run func() digest
	}
	var cells []cell

	for _, w := range workloads.All() {
		for _, sc := range schemeCases() {
			w, sc := w, sc
			cells = append(cells, cell{
				key: w.Name + "/" + sc.name,
				run: func() digest {
					p := buildFor(t, cache, w, sc)
					m := machine.New(p, sc.cfg)
					r0, err := m.Run(w.Args...)
					return digestOf(m, r0, err)
				},
			})
		}
	}

	// Injected runs: idempotence recovery on the instrumented idempotent
	// binary, one digest per fault model, plus an unprotected plain run
	// for the memory model (SDC path).
	for _, name := range injectedWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("injected workload %q missing", name)
		}
		for _, inj := range injections() {
			w, inj := w, inj
			cells = append(cells, cell{
				key: fmt.Sprintf("%s/inject-%s", w.Name, inj.Model),
				run: func() digest {
					sc := schemeCase{idem: true, doApp: true, apply: fault.SchemeIdempotence,
						cfg: machine.Config{BufferStores: true, Recovery: machine.RecoverIdempotence,
							Cache: machine.DefaultCache(), WatchdogRef: 1 << 20}}
					p := buildFor(t, cache, w, sc)
					m := machine.New(p, sc.cfg)
					fault.Arm(m, inj)
					r0, err := m.Run(w.Args...)
					return digestOf(m, r0, err)
				},
			})
		}
		// The register models under the other schemes too: detection-only
		// (plain, dmr), in-place correction (tmr) and rollback (cl) each
		// resolve a fault differently.
		for _, sc := range schemeCases() {
			switch sc.name {
			case "plain", "dmr", "tmr", "cl":
			default:
				continue
			}
			for _, inj := range injections()[:2] {
				w, sc, inj := w, sc, inj
				cells = append(cells, cell{
					key: fmt.Sprintf("%s/%s-inject-%s", w.Name, sc.name, inj.Model),
					run: func() digest {
						p := buildFor(t, cache, w, sc)
						cfg := sc.cfg
						cfg.WatchdogRef = 1 << 20
						m := machine.New(p, cfg)
						fault.Arm(m, inj)
						r0, err := m.Run(w.Args...)
						return digestOf(m, r0, err)
					},
				})
			}
		}
	}

	got := make(map[string]digest, len(cells))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, c := range cells {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			d := c.run()
			mu.Lock()
			got[c.key] = d
			mu.Unlock()
		}()
	}
	wg.Wait()

	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestPath)
		return
	}

	blob, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-digests): %v", digestPath, err)
	}
	var want map[string]digest
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", digestPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("digest count mismatch: golden has %d, run produced %d", len(want), len(got))
	}
	for key, wd := range want {
		gd, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run", key)
			continue
		}
		if gd != wd {
			t.Errorf("%s: state diverged\n  want %+v\n  got  %+v", key, wd, gd)
		}
	}
}
