package buildcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

func testWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName("bzip2")
	if !ok {
		t.Fatal("workload bzip2 missing")
	}
	return w
}

// TestCompileOnceUnderConcurrency hammers one key from many goroutines
// and asserts exactly one compile ran (singleflight) and every caller
// got the same shared Program. Run under -race this also checks the
// synchronization of the entry handoff.
func TestCompileOnceUnderConcurrency(t *testing.T) {
	w := testWorkload(t)
	c := New()
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}

	const callers = 16
	progs := make([]*codegen.Program, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, st, err := c.Compile(context.Background(), w, mo)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if p == nil || st == nil {
				t.Errorf("caller %d: nil result", i)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different Program than caller 0", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Distinct != 1 {
		t.Fatalf("got %d misses / %d distinct, want exactly one compile", st.Misses, st.Distinct)
	}
	if st.Hits != callers-1 {
		t.Fatalf("got %d hits, want %d", st.Hits, callers-1)
	}
	if st.CompileTime <= 0 {
		t.Fatalf("compile time not accounted: %v", st.CompileTime)
	}
}

// TestDistinctOptionsDistinctEntries checks that differing options
// (including nested core.Options fields) key separate cache entries.
func TestDistinctOptionsDistinctEntries(t *testing.T) {
	w := testWorkload(t)
	c := New()
	capped := core.DefaultOptions()
	capped.MaxRegionSize = 8
	configs := []codegen.ModuleOptions{
		{Core: core.DefaultOptions()},
		{Idempotent: true, Core: core.DefaultOptions()},
		{Idempotent: true, Core: capped},
	}
	var progs []*codegen.Program
	for _, mo := range configs {
		p, _, err := c.Compile(context.Background(), w, mo)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	if st := c.Stats(); st.Distinct != len(configs) || st.Misses != int64(len(configs)) {
		t.Fatalf("got %d distinct / %d misses, want %d of each", st.Distinct, st.Misses, len(configs))
	}
	for i := 0; i < len(progs); i++ {
		for j := i + 1; j < len(progs); j++ {
			if progs[i] == progs[j] {
				t.Fatalf("configs %d and %d aliased to one Program", i, j)
			}
		}
	}
	// Re-requesting an existing key must hit.
	if _, _, err := c.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("got %d hits after re-request, want 1", st.Hits)
	}
}

// TestConcurrentRunsMatchSerial proves the Program immutability contract
// the cache relies on: one cached Program backing many concurrent
// machines produces exactly the serial reference result. Run under
// -race this is the enforcement test for the contract documented on
// codegen.Program.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	w := testWorkload(t)
	c := New()
	p, _, err := c.Compile(context.Background(), w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{BufferStores: true, TrackPaths: true}

	ref := machine.New(p, cfg)
	refRet, err := ref.Run(w.Args...)
	if err != nil {
		t.Fatal(err)
	}

	const runners = 8
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := machine.New(p, cfg)
			ret, err := m.Run(w.Args...)
			if err != nil {
				t.Errorf("runner %d: %v", i, err)
				return
			}
			if ret != refRet {
				t.Errorf("runner %d returned %d, serial reference returned %d", i, ret, refRet)
			}
			if m.Stats.Cycles != ref.Stats.Cycles || m.Stats.DynInstrs != ref.Stats.DynInstrs {
				t.Errorf("runner %d stats (%d cycles, %d instrs) != reference (%d, %d)",
					i, m.Stats.Cycles, m.Stats.DynInstrs, ref.Stats.Cycles, ref.Stats.DynInstrs)
			}
		}(i)
	}
	wg.Wait()
}

// TestFingerprintCoversAllFields pins the field counts of the two
// structs the fingerprint encodes (codegen.ModuleOptions and the nested
// core.Options). If either struct grows a field this fails, pointing at
// codegen.ModuleOptions.Fingerprint, which must be extended in lockstep
// or distinct configurations would silently alias to one cache entry.
// With the disk tier this pin is load-bearing for persistence too: the
// fingerprint is the artifact key on disk, so an unencoded field would
// alias artifacts across restarts and serve a Program compiled under
// different options. The fingerprint must fail closed.
func TestFingerprintCoversAllFields(t *testing.T) {
	if n := reflect.TypeOf(codegen.ModuleOptions{}).NumField(); n != 4 {
		t.Errorf("codegen.ModuleOptions has %d fields, fingerprint encodes 4: extend ModuleOptions.Fingerprint", n)
	}
	if n := reflect.TypeOf(core.Options{}).NumField(); n != 7 {
		t.Errorf("core.Options has %d fields, fingerprint encodes 7: extend ModuleOptions.Fingerprint", n)
	}

	// And the encoding must actually distinguish each boolean/int field.
	base := codegen.ModuleOptions{Core: core.DefaultOptions()}
	seen := map[string]string{base.Fingerprint(): "base"}
	variants := map[string]codegen.ModuleOptions{}
	add := func(name string, mo codegen.ModuleOptions) { variants[name] = mo }
	{
		mo := base
		mo.Idempotent = true
		add("Idempotent", mo)
	}
	{
		mo := base
		mo.RelaxedAlloc = true
		add("RelaxedAlloc", mo)
	}
	{
		mo := base
		mo.PureCalls = true
		add("PureCalls", mo)
	}
	flip := func(name string, f func(*core.Options)) {
		mo := base
		f(&mo.Core)
		add("Core."+name, mo)
	}
	flip("LoopHeuristic", func(o *core.Options) { o.LoopHeuristic = !o.LoopHeuristic })
	flip("RedElim", func(o *core.Options) { o.RedElim = !o.RedElim })
	flip("UnrollLoops", func(o *core.Options) { o.UnrollLoops = !o.UnrollLoops })
	flip("CutAtCalls", func(o *core.Options) { o.CutAtCalls = !o.CutAtCalls })
	flip("BalancedHeuristic", func(o *core.Options) { o.BalancedHeuristic = !o.BalancedHeuristic })
	flip("MaxRegionSize", func(o *core.Options) { o.MaxRegionSize = 64 })
	flip("PureFuncs", func(o *core.Options) { o.PureFuncs = map[string]bool{"f": true} })
	for name, mo := range variants {
		fp := mo.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("flipping %s produced the same fingerprint as %s: %q", name, prev, fp)
		}
		seen[fp] = name
	}
}

// slowWorkload synthesizes a source workload big enough that its compile
// takes measurable time (many independent functions), for cancellation
// tests that must observe an in-flight build.
func slowWorkload() workloads.Workload {
	var b []byte
	b = append(b, "global int g[4] = {1, 2, 3};\n"...)
	for i := 0; i < 160; i++ {
		b = append(b, []byte(fmt.Sprintf(
			"func f%d(int x) int { int s = 0; for (int i = 0; i < x; i = i + 1) { s = s + i * %d; } return s; }\n", i, i+1))...)
	}
	b = append(b, "func main(int n) int { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n"...)
	return workloads.Workload{Name: "slow-synthetic", Source: string(b), Args: []uint64{8}, MemWords: 4096}
}

// TestCancelAbandonsInflightCompile checks the context contract: a
// canceled requester stops waiting on an in-flight singleflight entry
// immediately, the detached build still completes, and a later request
// is served from the cache as a hit.
func TestCancelAbandonsInflightCompile(t *testing.T) {
	w := slowWorkload()
	c := New()
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}

	// Trigger the compile from a background requester.
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, _, err := c.Compile(context.Background(), w, mo)
		done <- err
	}()
	<-started

	// A canceled waiter must return promptly with ctx.Err even while the
	// compile is in flight (or already finished — then it gets the
	// result; both are allowed, blocking until cancellation is not).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, _, err := c.Compile(ctx, w, mo)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter: unexpected error %v", err)
		}
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled waiter did not return")
	}

	// The detached build completes and serves subsequent requests.
	if err := <-done; err != nil {
		t.Fatalf("background compile: %v", err)
	}
	p, _, err := c.Compile(context.Background(), w, mo)
	if err != nil || p == nil {
		t.Fatalf("post-compile request: %v", err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("got %d misses, want exactly one compile", st.Misses)
	}
}

// TestCompilePublishesAfterInsert holds the cache lock from the moment
// a compile's entry is registered until the compile has finished, and
// checks that Compile does not return meanwhile unless the entry is
// already on the LRU: the result is published only after the entry is
// inserted, so a Stats read right after Compile returns counts the
// entry's bytes.
func TestCompilePublishesAfterInsert(t *testing.T) {
	w := testWorkload(t)
	c := New()
	mo := codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()}

	returned := make(chan error, 1)
	go func() {
		_, _, err := c.Compile(context.Background(), w, mo)
		returned <- err
	}()
	var e *entry
	for {
		c.mu.Lock()
		if e = c.entries[KeyOf(w, mo)]; e != nil {
			break // registered; keep holding c.mu
		}
		c.mu.Unlock()
		runtime.Gosched()
	}
	// The compile takes no lock; its time is added just before build
	// publishes.
	for c.compileNanos.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A compile that finished before the lock was taken has inserted its
	// entry and may have published; any other must wait for the lock.
	inserted := e.elem != nil
	var err error
	select {
	case err = <-returned:
		c.mu.Unlock()
		if !inserted {
			t.Fatal("Compile returned before its entry was inserted into the LRU")
		}
	case <-time.After(100 * time.Millisecond):
		c.mu.Unlock()
		err = <-returned
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.BytesInUse == 0 {
		t.Fatalf("bytes in use %d right after Compile returned", st.BytesInUse)
	}
}

// TestBoundedEviction drives distinct configurations through a cache
// whose byte bound fits roughly one program and asserts LRU eviction:
// evictions observed, occupancy bounded, evicted keys recompile (miss)
// while the resident key still hits.
func TestBoundedEviction(t *testing.T) {
	w := testWorkload(t)
	configs := make([]codegen.ModuleOptions, 4)
	for i := range configs {
		o := core.DefaultOptions()
		o.MaxRegionSize = 8 * (i + 1)
		configs[i] = codegen.ModuleOptions{Idempotent: true, Core: o}
	}

	// Size the bound from a real compile: big enough for one entry, too
	// small for two.
	probe := New()
	if _, _, err := probe.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	bound := probe.Stats().BytesInUse * 3 / 2

	c := NewBounded(bound)
	for _, mo := range configs {
		if _, _, err := c.Compile(context.Background(), w, mo); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under bound %d (bytes in use %d)", bound, st.BytesInUse)
	}
	if st.BytesInUse > bound {
		t.Fatalf("bytes in use %d exceeds bound %d with %d entries", st.BytesInUse, bound, st.Distinct)
	}
	if st.MaxBytes != bound {
		t.Fatalf("MaxBytes = %d, want %d", st.MaxBytes, bound)
	}

	// The most recent config must still be resident (LRU keeps MRU)...
	before := c.Stats().Misses
	if _, _, err := c.Compile(context.Background(), w, configs[len(configs)-1]); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats().Misses; after != before {
		t.Fatalf("MRU entry was evicted: misses went %d -> %d", before, after)
	}
	// ...and the oldest must have been evicted (recompiles as a miss).
	if _, _, err := c.Compile(context.Background(), w, configs[0]); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats().Misses; after != before+1 {
		t.Fatalf("evicted entry did not recompile: misses %d, want %d", after, before+1)
	}
}

// insertCompleted places a synthetic completed entry of a given cost
// directly on the cache structures (white-box), mimicking build()'s
// insertion, and runs an eviction sweep.
func insertCompleted(c *Cache, name string, cost int64) {
	e := &entry{key: Key{Workload: name}, done: make(chan struct{}), cost: cost}
	close(e.done)
	c.mu.Lock()
	c.entries[e.key] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += e.cost
	c.evict()
	c.mu.Unlock()
}

// TestEvictToBoundRegression pins the eviction semantics the old
// `lru.Len() > 1` guard got wrong: the sweep must evict all the way to
// the byte bound, and the sole remaining entry may exceed it only when
// that entry is itself larger than the whole budget (keep-one).
func TestEvictToBoundRegression(t *testing.T) {
	const bound = 100
	c := NewBounded(bound)

	// Entries that fit: eviction keeps occupancy at or under the bound.
	insertCompleted(c, "a", 40)
	insertCompleted(c, "b", 40)
	insertCompleted(c, "c", 40)
	if c.bytes > bound {
		t.Fatalf("bytes %d exceeds bound %d after fitting inserts", c.bytes, bound)
	}
	if c.lru.Len() != 2 {
		t.Fatalf("got %d resident entries, want 2 (a evicted)", c.lru.Len())
	}

	// An oversized insert evicts everything else and is kept alone above
	// the bound (the only alternative is caching nothing).
	insertCompleted(c, "big", 150)
	if c.lru.Len() != 1 {
		t.Fatalf("oversized insert left %d entries, want keep-one", c.lru.Len())
	}
	if _, ok := c.entries[Key{Workload: "big"}]; !ok {
		t.Fatal("oversized entry was itself evicted")
	}
	if c.bytes != 150 {
		t.Fatalf("bytes = %d, want 150 (the kept oversized entry)", c.bytes)
	}

	// The next fitting insert pushes the oversized entry out and restores
	// the bound — the cache must not stay pinned above budget.
	insertCompleted(c, "d", 40)
	if c.bytes > bound {
		t.Fatalf("bytes %d still above bound %d after oversized entry became LRU", c.bytes, bound)
	}
	if _, ok := c.entries[Key{Workload: "big"}]; ok {
		t.Fatal("oversized entry still resident after a fitting insert")
	}
	if _, ok := c.entries[Key{Workload: "d"}]; !ok {
		t.Fatal("newest fitting insert was evicted")
	}
}

// TestEntryCostUnits pins the cost model's units: -cache-bytes and the
// benchmark's churn bound are stated in them, so bzip2's default
// idempotent build must keep costing what it always has.
func TestEntryCostUnits(t *testing.T) {
	w := testWorkload(t)
	c := New()
	p, _, err := c.Compile(context.Background(), w, codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := entryCost(&entry{prog: p}), int64(92040); got != want {
		t.Fatalf("entryCost = %d, want %d", got, want)
	}
}

// TestCompilePanicMemoizedAsError checks that a panicking compile (a
// workload whose source does not parse) surfaces as a memoized error
// instead of killing the process — the daemon depends on this.
func TestCompilePanicMemoizedAsError(t *testing.T) {
	w := workloads.Workload{Name: "broken-synthetic", Source: "func main(", MemWords: 1024}
	c := New()
	for i := 0; i < 2; i++ {
		_, _, err := c.Compile(context.Background(), w, codegen.ModuleOptions{Core: core.DefaultOptions()})
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("request %d: got err %v, want memoized compile panic", i, err)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("got %d misses / %d hits, want the failure memoized once", st.Misses, st.Hits)
	}
}
