// Package buildcache memoizes workload compilation for the experiment
// drivers and the idemd analysis daemon. Every figure of the paper's
// evaluation compiles the same (workload, options) pairs — Fig. 10 and
// Fig. 12 alone rebuild the full suite twice each — so the drivers route
// all compiles through a shared, concurrency-safe, content-keyed cache:
// at most one compile ever runs per distinct key, concurrent requesters
// for the same key block on the in-flight build (singleflight), and the
// resulting *codegen.Program is shared by every subsequent simulator run
// (safe because a linked Program is read-only — see the codegen.Program
// immutability contract).
//
// Two properties matter for the long-running service (cmd/idemd) beyond
// the batch drivers:
//
//   - Cancellation: Compile takes a context. The compile itself runs on a
//     detached goroutine owned by the cache, so a canceled requester
//     returns immediately with ctx.Err() while the build keeps going and
//     lands in the cache for the next requester. Waiters on an in-flight
//     entry likewise unblock on cancellation instead of riding out the
//     compile.
//
//   - Bounded memory: NewBounded caps the (estimated) resident bytes of
//     completed entries with LRU eviction, so a daemon serving an open-
//     ended mix of sources and option fingerprints can run indefinitely.
//     Evicting an entry drops the cache's reference (and the memoized
//     predecode, see machine.DropPredecode); Programs already handed out
//     remain valid because they are immutable.
package buildcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

// Key identifies one distinct compile: the workload (workload sources are
// static, so the name identifies the module; synthetic source workloads
// must embed a content hash in the name), the memory size it is linked
// for, and the canonical options fingerprint.
type Key struct {
	Workload string
	MemWords int
	Options  string
}

// KeyOf builds the cache key for compiling w under mo.
func KeyOf(w workloads.Workload, mo codegen.ModuleOptions) Key {
	return Key{Workload: w.Name, MemWords: w.MemWords, Options: mo.Fingerprint()}
}

// entry is one cache slot. done is closed when the compile finishes;
// waiters block on it and then read the immutable result fields. elem is
// the entry's LRU node (nil while the compile is in flight: only
// completed entries participate in eviction).
type entry struct {
	key   Key
	done  chan struct{}
	prog  *codegen.Program
	stats *codegen.BuildStats
	err   error
	// verified is set when the translation validator checked this program
	// and found no violations (see VerifyMode); written before done is
	// closed, read only after.
	verified bool

	cost int64
	elem *list.Element
}

// Cache is a concurrency-safe compile cache. The zero value is not
// usable; call New or NewBounded.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// lru orders completed entries most-recently-used first; bytes is the
	// summed cost of entries on it. maxBytes <= 0 means unbounded.
	lru      *list.List
	bytes    int64
	maxBytes int64

	// disk is the optional write-behind persistence tier (nil when the
	// cache is memory-only). It is only consulted on memory misses and
	// written off the singleflight path.
	disk *Disk

	// verifyMode is fixed at configuration time (SetVerifyMode), before
	// the cache starts serving.
	verifyMode VerifyMode

	// Counters are atomics: they are written on the request path (under
	// mu or not) and read lock-free by Stats, which /metrics scrapes
	// concurrently with in-flight compiles.
	hits, misses atomic.Int64
	compiles     atomic.Int64
	evictions    atomic.Int64
	compileNanos atomic.Int64

	verifyChecked  atomic.Int64
	verifyFailed   atomic.Int64
	verifyRejected atomic.Int64
	verifyNanos    atomic.Int64
}

// New returns an empty, unbounded cache.
func New() *Cache { return NewBounded(0) }

// NewBounded returns an empty cache that evicts least-recently-used
// completed entries once their estimated resident size exceeds maxBytes
// (<= 0 means unbounded). A single entry larger than the bound still
// caches (there is no smaller state the cache could be in), but any
// older entries are evicted to make way for it.
func NewBounded(maxBytes int64) *Cache {
	return &Cache{entries: map[Key]*entry{}, lru: list.New(), maxBytes: maxBytes}
}

// NewBoundedDisk is NewBounded with a persistent artifact tier rooted at
// dir: memory misses try the disk before compiling, and fresh compiles
// are written behind as content-keyed artifact files (see Disk). An
// empty dir means no disk tier.
func NewBoundedDisk(maxBytes int64, dir string) *Cache {
	c := NewBounded(maxBytes)
	if dir != "" {
		c.disk = newDisk(dir)
	}
	return c
}

// Disk returns the cache's persistence tier, or nil for memory-only
// caches.
func (c *Cache) Disk() *Disk { return c.disk }

// Compile returns the compiled program for (w, mo), building it on first
// request and serving the memoized result afterwards. Concurrent calls
// with the same key perform exactly one compile. Errors are memoized too
// (a workload that fails to build fails identically for every figure).
//
// The compile runs on a cache-owned goroutine: if ctx is canceled the
// caller returns ctx.Err() immediately, but the build completes and is
// cached for later requesters (and waiters on an in-flight entry stop
// waiting without discarding the build).
//
// The returned Program and BuildStats are shared across callers and must
// be treated as immutable.
func (c *Cache) Compile(ctx context.Context, w workloads.Workload, mo codegen.ModuleOptions) (*codegen.Program, *codegen.BuildStats, error) {
	key := KeyOf(w, mo)

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return c.wait(ctx, e)
	}
	e := &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	go c.build(e, w, mo)
	return c.wait(ctx, e)
}

// wait blocks until e's compile completes or ctx is canceled.
func (c *Cache) wait(ctx context.Context, e *entry) (*codegen.Program, *codegen.BuildStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fast path: a completed entry never blocks (and never loses the
	// select race to an already-canceled context).
	select {
	case <-e.done:
		return e.prog, e.stats, e.err
	default:
	}
	select {
	case <-e.done:
		return e.prog, e.stats, e.err
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// build runs the compile for e and publishes the result. It owns the
// entry until done is closed. A panicking compile (e.g. a workload whose
// source does not even parse — Workload.Module panics) is converted into
// a memoized error instead of killing the process: the cache backs a
// long-running daemon that must survive hostile inputs.
func (c *Cache) build(e *entry, w workloads.Workload, mo codegen.ModuleOptions) {
	var compiled bool
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			e.prog, e.stats = nil, nil
			e.err = fmt.Errorf("buildcache: compile %s: panic: %v", w.Name, r)
		}
		if compiled {
			c.compileNanos.Add(time.Since(start).Nanoseconds())
		}

		c.mu.Lock()
		// The entry may have raced with an eviction sweep only after
		// insertion below, so this is the unique insertion point.
		if _, still := c.entries[e.key]; still {
			e.cost = entryCost(e)
			e.elem = c.lru.PushFront(e)
			c.bytes += e.cost
			c.evict()
		}
		c.mu.Unlock()
		// Publish only now: a caller that returns from Compile finds the
		// entry on the LRU and its cost in Stats().BytesInUse.
		close(e.done)
	}()

	// Second tier: a valid persisted artifact serves the miss without
	// compiling (the decoded Program is as immutable as a fresh one, so
	// it repopulates the LRU like any other entry). Disk failures of any
	// kind — missing, stale, corrupt — degrade to a recompile.
	if c.disk != nil {
		if p, st, ok := c.disk.load(e.key); ok {
			// Every decoded artifact is re-verified when verification is on:
			// the artifact file is the one input this process's compiler did
			// not just produce. A rejection mirrors the corrupt-artifact
			// contract — prune, re-book as a disk miss, recompile — and is
			// never an error.
			if c.verifyMode != VerifyOff {
				if rep := c.runVerify(p, mo); rep != nil && !rep.OK() {
					c.verifyRejected.Add(1)
					c.disk.reject(e.key)
					p, st = nil, nil
				} else {
					e.verified = rep != nil
				}
			}
			if p != nil {
				e.prog, e.stats = p, st
				machine.Predecode(e.prog)
				return
			}
		}
	}

	compiled = true
	c.compiles.Add(1)
	e.prog, e.stats, e.err = codegen.CompileModuleOpts(w.Module(), "main", w.MemWords, mo)
	if e.err == nil && c.verifyFresh(e.key) {
		if rep := c.runVerify(e.prog, mo); rep != nil {
			if rep.OK() {
				e.verified = true
			} else {
				// A compile the validator rejects must not be served or
				// persisted; memoize the failure like any other build error.
				e.prog, e.stats = nil, nil
				e.err = fmt.Errorf("buildcache: verify %s: %s", w.Name, rep.Summary())
			}
		}
	}
	if e.err == nil {
		// Predecode at compile time: the decoded form is memoized per
		// Program (see machine.Predecode), so paying the pass here — once,
		// inside the singleflight — means experiment workers find it ready
		// and never decode on the simulation path.
		machine.Predecode(e.prog)
		if c.disk != nil {
			// Write-behind: persist off the singleflight path so waiters
			// are not held for disk I/O.
			c.disk.storeAsync(e.key, e.prog, e.stats)
		}
	}
}

// evict drops LRU completed entries until the cache fits its bound.
// The sole entry left is kept only when it alone exceeds the bound
// (there is no smaller non-empty state); the old `lru.Len() > 1` guard
// stopped one entry early unconditionally, so a single entry costlier
// than maxBytes pinned the cache above its budget forever once anything
// else was resident alongside it. Caller holds c.mu.
func (c *Cache) evict() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			return
		}
		if el == c.lru.Front() && el.Value.(*entry).cost > c.maxBytes {
			// The just-inserted entry is itself oversized: keep it (evicting
			// the result we were asked for would thrash) and accept the
			// overshoot until the next insert pushes it out.
			return
		}
		ev := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.entries, ev.key)
		c.bytes -= ev.cost
		c.evictions.Add(1)
		if ev.prog != nil {
			// Drop the memoized predecode alongside the Program so the
			// eviction actually frees memory (the predecode cache keys on
			// Program identity and would otherwise pin it forever).
			machine.DropPredecode(ev.prog)
		}
	}
}

// Cost model: entries are sized by a documented estimate, not exact heap
// accounting. Per instruction we charge the encoded isa.Instr and the
// FuncOf string header (perInstrCost), plus the predecoded record the
// cache pins alongside every resident Program (perInstrPredecodeCost —
// build() predecodes each entry at insert, and machine.DropPredecode
// only runs at evict, so the memo's lifetime is exactly the entry's and
// omitting it undercounted resident bytes by roughly a third); symbols
// and global words are charged flat. The estimate only needs to be
// proportional to the real footprint for LRU eviction to bound memory.
const (
	entryBaseCost = 1 << 10 // entry + Program + BuildStats fixed parts
	perInstrCost  = 128
	// perInstrPredecodeCost covers the decoded record machine.Predecode
	// memoizes per instruction (~48 bytes of fields plus slice/alignment
	// overhead).
	perInstrPredecodeCost = 64
	perSymbolCost         = 64
	perGlobalWord         = 8
	errorEntryCost        = entryBaseCost // memoized failures hold only an error
)

// entryCost estimates the resident bytes of a completed entry.
func entryCost(e *entry) int64 {
	if e.prog == nil {
		return errorEntryCost
	}
	p := e.prog
	cost := int64(entryBaseCost)
	cost += int64(len(p.Instrs)) * (perInstrCost + perInstrPredecodeCost)
	cost += int64(len(p.FuncEntry)+len(p.GlobalBase)) * perSymbolCost
	cost += p.GlobalEnd * perGlobalWord
	return cost
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts requests served from an existing entry (including
	// requests that waited on an in-flight build); Misses counts
	// requests that triggered a build — a compile, or a disk-tier load.
	// Hits+Misses is the total request count; Misses >= Distinct once
	// eviction is on, because evicted keys rebuild.
	Hits, Misses int64
	// Distinct is the number of (workload, options) pairs currently
	// resident (including in-flight compiles).
	Distinct int
	// CompileTime is the total wall time spent inside compiles, summed
	// across workers (it can exceed elapsed wall time under parallelism).
	CompileTime time.Duration
	// Compiles counts actual codegen runs. Without a disk tier it equals
	// Misses; with one it can be lower, because misses served from a
	// persisted artifact skip the compiler entirely.
	Compiles int64
	// Evictions counts entries dropped by the byte bound; BytesInUse is
	// the estimated resident size of completed entries; MaxBytes is the
	// configured bound (0 = unbounded).
	Evictions  int64
	BytesInUse int64
	MaxBytes   int64
	// Disk tier counters (all zero for memory-only caches). DiskHits
	// counts misses served from a persisted artifact; DiskMisses counts
	// lookups the disk could not serve (no artifact, stale header, or
	// corrupt payload — DiskCorrupt is the subset that found an invalid
	// file); DiskWrites counts artifacts persisted.
	DiskHits, DiskMisses, DiskWrites, DiskCorrupt int64
	// Verification counters (all zero when VerifyMode is off).
	// VerifyChecked counts validator runs over fresh compiles and decoded
	// artifacts; VerifyFailed counts runs that found violations;
	// VerifyRejectedArtifacts is the subset of failures that pruned a
	// decode-clean disk artifact. VerifyNanos is wall time spent inside
	// the validator, the numerator of the bench guard's per-check cost.
	VerifyChecked, VerifyFailed, VerifyRejectedArtifacts int64
	VerifyNanos                                          int64
}

// Stats returns a snapshot of the cache counters. The monotonic counters
// (hits, misses, evictions, compile time) are read atomically and may be
// fractionally newer than the mu-guarded occupancy numbers; /metrics
// scrapes tolerate that.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	distinct := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Compiles:    c.compiles.Load(),
		Distinct:    distinct,
		CompileTime: time.Duration(c.compileNanos.Load()),
		Evictions:   c.evictions.Load(),
		BytesInUse:  bytes,
		MaxBytes:    c.maxBytes,
	}
	if c.disk != nil {
		st.DiskHits = c.disk.hits.Load()
		st.DiskMisses = c.disk.misses.Load()
		st.DiskWrites = c.disk.writes.Load()
		st.DiskCorrupt = c.disk.corrupt.Load()
	}
	st.VerifyChecked = c.verifyChecked.Load()
	st.VerifyFailed = c.verifyFailed.Load()
	st.VerifyRejectedArtifacts = c.verifyRejected.Load()
	st.VerifyNanos = c.verifyNanos.Load()
	return st
}

// Verified reports whether the cached entry for (w, mo) was checked by
// the translation validator and passed. It is false for entries that
// were not sampled, were skipped (markless or relaxed-alloc builds),
// are still in flight, or are not resident.
func (c *Cache) Verified(w workloads.Workload, mo codegen.ModuleOptions) bool {
	key := KeyOf(w, mo)
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.verified
	default:
		return false
	}
}
