// Package machine simulates the isa target: a two-issue in-order pipeline
// (the paper's gem5 ARMv7 model stand-in) with functional execution,
// cycle accounting, a store buffer that commits at region boundaries
// (§2.3), dynamic idempotent-path tracking (Figures 8/9), fault injection
// with taint-based DMR detection, and the three recovery schemes of §6.3.
//
// The execution core is a predecoded, allocation-free hot loop (see
// predecode.go and docs/machine.md): each Machine decodes its program
// once into dense operand-resolved records, the functional core and the
// pipeline model share one flat 48-register file (times three banks for
// the DMR/TMR shadow copies in the timing model), load forwarding out of
// the region store buffer is O(1) through a last-writer index, and the
// fault machinery — including the golden-mirror maintenance DMR detection
// is built on — costs nothing until the first scheduled event's step is
// reached, and nothing again once every injected fault has resolved.
package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// Stats accumulates execution statistics.
type Stats struct {
	// DynInstrs counts executed instructions; Cycles is the pipeline
	// model's time.
	DynInstrs int64
	Cycles    int64
	// Loads/Stores/Marks count dynamic occurrences.
	Loads, Stores, Marks int64
	// Mispredicts counts branch mispredictions under the static
	// backward-taken predictor.
	Mispredicts int64
	// PathLens histograms dynamic idempotent path lengths (instructions
	// between consecutive region boundaries), when path tracking is on.
	PathLens map[int64]int64
	// Recoveries counts fault recoveries; Detections counts taint
	// detections (≥ Recoveries for TMR, which corrects in place).
	Recoveries, Detections int64
	// Faults counts injected faults.
	Faults int64
	// FirstFaultStep / FirstDetectStep record the dynamic instruction
	// index at which the first fault materialized and at which the first
	// detection fired (-1 when none); their difference is the detection
	// latency campaign reports aggregate.
	FirstFaultStep, FirstDetectStep int64
	// Reconciles counts boundary reconciliations of dead divergence.
	Reconciles int64
	// CacheHits/CacheMisses count L1 data cache outcomes (when the cache
	// model is enabled).
	CacheHits, CacheMisses int64
}

// AvgPathLen returns the mean dynamic path length.
func (s *Stats) AvgPathLen() float64 {
	var n, sum int64
	for l, c := range s.PathLens {
		n += c
		sum += l * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// WeightedPathCDF returns (lengths, cumulative execution-time fraction)
// pairs: each path weighted by its length, as in the paper's Figure 8.
func (s *Stats) WeightedPathCDF() ([]int64, []float64) {
	type lc struct {
		l, c int64
	}
	pairs := make([]lc, 0, len(s.PathLens))
	var total float64
	for l, c := range s.PathLens {
		pairs = append(pairs, lc{l, c})
		total += float64(l * c)
	}
	slices.SortFunc(pairs, func(a, b lc) int {
		switch {
		case a.l < b.l:
			return -1
		case a.l > b.l:
			return 1
		}
		return 0
	})
	lens := make([]int64, len(pairs))
	cdf := make([]float64, len(pairs))
	run := 0.0
	for i, p := range pairs {
		lens[i] = p.l
		run += float64(p.l * p.c)
		cdf[i] = run / total
	}
	return lens, cdf
}

// Recovery selects the fault recovery scheme (§6.3).
type Recovery uint8

const (
	// RecoverNone halts with an error on detection.
	RecoverNone Recovery = iota
	// RecoverIdempotence re-executes from the register rp (the current
	// region's entry), relying on the idempotent compilation.
	RecoverIdempotence
	// RecoverCheckpointLog rolls memory back through the undo log and
	// restores the interval-start register checkpoint.
	RecoverCheckpointLog
	// RecoverTMR corrects values in place at MAJ instructions.
	RecoverTMR
)

// Config controls optional machine features.
type Config struct {
	// BufferStores holds stores in a buffer until the next MARK (§2.3);
	// required for RecoverIdempotence.
	BufferStores bool
	// TrackPaths records dynamic region path lengths.
	TrackPaths bool
	// Recovery selects the scheme driving CHECK/MAJ/MARK semantics.
	Recovery Recovery
	// MaxSteps bounds execution (default 500M).
	MaxSteps int64
	// WatchdogRef enables the livelock watchdog: when > 0 it is the
	// fault-free reference dynamic-instruction count, and execution is
	// aborted with ErrLivelock once DynInstrs exceeds
	// WatchdogRef*WatchdogFactor + a fixed slack. Injected faults that
	// corrupt loop bounds (directly or through memory) otherwise spin
	// until the generic MaxSteps limit, which is orders of magnitude
	// larger and indistinguishable from a simulator bug.
	WatchdogRef int64
	// WatchdogFactor is the dynamic-instruction budget relative to the
	// fault-free reference (default 16x when WatchdogRef is set).
	WatchdogFactor float64
	// MaxRegionRetries bounds consecutive re-executions restarting at
	// the same point (default 64): a fault storm that re-corrupts every
	// re-execution escalates to ErrLivelock instead of spinning.
	MaxRegionRetries int
	// PreemptEvery is the cancellation-poll stride in dynamic
	// instructions for a context bound via BindContext (default 4096).
	// It is the preemption budget: once the bound context is canceled,
	// Run stops within PreemptEvery further instructions. The poll is a
	// non-blocking channel receive gated on an instruction counter, so
	// the fault-free hot path stays allocation-free.
	PreemptEvery int64
	// Tracer, if set, observes every executed instruction.
	Tracer Tracer
	// Cache configures the L1 data cache timing model; the zero value
	// means flat 2-cycle memory. Use DefaultCache() for the gem5-like
	// configuration the experiment drivers use.
	Cache CacheConfig
}

// Tracer observes execution (the limit study hooks in here).
type Tracer interface {
	// Instr is called after each instruction executes. memAddr is the
	// effective address for memory ops (else 0); sp is the current stack
	// pointer (for local-vs-non-local stack classification).
	Instr(in isa.Instr, memAddr int64, sp uint64)
	// Call/Ret are called at function boundaries.
	Call()
	Ret()
}

// Machine is one simulator instance.
//
// Register file layout: Regs is the unified architectural file indexed
// directly by isa.Reg — integer registers at 0..15, floating-point
// registers at 16..47 (isa.F(i) == 16+i). The pipeline model extends the
// same indexing with two shadow banks (48×3 availability slots) for the
// DMR/TMR redundant copies, which exist only for timing.
type Machine struct {
	P    *codegen.Program
	Cfg  Config
	Regs [isa.NumRegs]uint64
	Mem  []uint64
	PC   int

	Stats Stats

	// code is this machine's predecoded program (see predecode.go).
	code *Code

	// Pipeline model state.
	pipe  pipeline
	cache *dcache

	// Region / recovery state.
	storeBuf   []sbEntry
	sb         sbIndex
	rp         int
	rpSP, rpLR uint64
	pathLen    int64

	// Event-driven fault scheduling: nextEvent is the dynamic step of the
	// next mode decision. While the machine is cold, exec runs the pure
	// fault-free fast path — no queue polling, no golden-mirror
	// maintenance — and nextEvent is the earliest step at which any
	// scheduled injection can fire (MaxInt64 when none are pending);
	// reaching it sets hot, which activates the full fault machinery.
	// While it is hot, a decision falls every hotStride instructions, and
	// the machine goes cold again once its faults have resolved (see
	// settled).
	nextEvent int64
	hot       bool

	// Golden state: a fault-free mirror of the register file, computed
	// from golden sources in parallel with architectural execution while
	// the machine is hot (the mirror is seeded from the architectural
	// file on going hot, when no divergence exists). A register is
	// "tainted" (holds a corrupted or corruption-derived value) exactly
	// when its architectural and golden values differ — which is
	// precisely what a DMR shadow copy detects.
	golden [isa.NumRegs]uint64
	// Livelock guard: consecutive boundary recoveries at the same restart
	// point reconcile dead corrupted registers (see mark handling).
	lastRecoverPC  int
	consecBoundary int

	// Checkpoint-log state: the undo log fills [logBase, logEnd), just
	// past the globals, and logPtr is its next free word.
	logBase, logEnd int64
	logPtr          int64
	ckptRegs        [isa.NumRegs]uint64
	ckptPC          int

	// Pending fault injections, sorted by step: the first register-writing
	// instruction at or after each step has destination bits flipped by
	// the recorded mask (single-bit for classic SEU, multi-bit for burst
	// faults).
	faultAt []pendingFault
	// Pending control-flow error injections (§2.3: branch misprediction
	// style failures), sorted: the first conditional branch at or after
	// each step takes the wrong direction.
	flipAt []int64
	// Pending memory-word corruptions, sorted by step: at the step'th
	// dynamic instruction the addressed word (in the store buffer if an
	// entry is outstanding, else backing memory) has mask bits flipped.
	memFaultAt []pendingMemFault
	// Pending boundary faults, sorted by arming step: each is primed by
	// the first MARK executed at or after its step and fires on the first
	// register write after that boundary (stressing early-region
	// corruption, where recovery must replay the whole region).
	boundaryAt []pendingFault
	primed     []uint64
	// Pending nested faults, sorted by recovery count: each fires on the
	// first register write once Stats.Recoveries reaches its threshold —
	// a fault injected during re-execution, testing recovery-under-failure.
	nestedAt []pendingNested
	// Livelock escalation state: consecutive re-executions restarting at
	// the same point.
	retryPC    int
	retryCount int
	livelocked bool
	// wrongPath is set while executing a mis-directed path; boundary
	// verification at the next MARK detects it.
	wrongPath bool
	// justRecovered suppresses the boundary taint check at the MARK a
	// recovery jumps to: corrupted non-input registers legitimately stay
	// divergent until the region's re-execution rewrites them; the check
	// there would otherwise livelock. Inputs are clean by construction
	// (§4.4 live-ins are never redefined in-region, so the fault cannot
	// have hit one).
	justRecovered bool

	// Cooperative preemption state (see BindContext): preemptDone is the
	// bound context's cancellation channel, polled by Run every
	// pollStride dynamic instructions once DynInstrs reaches nextPoll.
	preemptCtx  context.Context
	preemptDone <-chan struct{}
	pollStride  int64
	nextPoll    int64

	halted bool
}

// ErrDetectedUnrecoverable reports a detection with RecoverNone.
var ErrDetectedUnrecoverable = errors.New("machine: fault detected, no recovery scheme")

// ErrLivelock reports the livelock watchdog firing: either the dynamic
// instruction budget relative to the fault-free reference was exhausted
// (an undetected fault corrupted forward progress, e.g. a loop bound held
// in memory) or the bounded re-execution retry counter overflowed (every
// re-execution was re-corrupted before reaching a boundary).
var ErrLivelock = errors.New("machine: livelock watchdog fired")

// ErrPreempted reports cooperative preemption: the context bound via
// BindContext was canceled and the step loop stopped within the
// Cfg.PreemptEvery instruction budget instead of running the workload to
// completion. The returned error also wraps the context's error, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded hold.
// Because every region is idempotent and the machine's outcome is a pure
// function of (program, args, armed faults), a preempted run can simply
// be re-executed later — the same recovery-by-re-execution discipline
// the compiled regions rely on, applied at request granularity.
var ErrPreempted = errors.New("machine: preempted")

// BindContext arms cooperative preemption: Run polls ctx's cancellation
// channel every Cfg.PreemptEvery dynamic instructions (default 4096) and
// returns ErrPreempted within that budget once ctx is canceled. Binding
// nil or a context that can never be canceled disarms the poll. The
// binding survives Reset, like armed fault injections.
func (m *Machine) BindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		m.preemptCtx, m.preemptDone = nil, nil
		return
	}
	m.pollStride = m.Cfg.PreemptEvery
	if m.pollStride <= 0 {
		m.pollStride = 4096
	}
	m.preemptCtx, m.preemptDone = ctx, ctx.Done()
	m.nextPoll = m.Stats.DynInstrs + m.pollStride
}

// logWords is the size of the checkpoint-and-log scheme's undo log: 1K
// logged stores, each a value and an address.
const logWords = 2048

// New creates a machine for p. It decodes p (see Predecode), and the
// machine keeps the decoded form for its own lifetime.
func New(p *codegen.Program, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	m := &Machine{P: p, Cfg: cfg, code: Predecode(p),
		logBase: p.GlobalEnd, logEnd: p.GlobalEnd + logWords}
	m.Reset()
	return m
}

// Reset reinitializes memory, registers and statistics. Armed fault
// injections survive a Reset (they are scheduled against dynamic-step
// indices, which restart from zero).
func (m *Machine) Reset() {
	m.Mem = make([]uint64, m.P.MemWords)
	for _, g := range m.P.Globals {
		base := m.P.GlobalBase[g.Name]
		for i, x := range g.Init {
			m.Mem[base+int64(i)] = uint64(x)
		}
	}
	m.Regs = [isa.NumRegs]uint64{}
	m.Stats = Stats{PathLens: map[int64]int64{}, FirstFaultStep: -1, FirstDetectStep: -1}
	m.pipe = pipeline{}
	if m.Cfg.Cache.Sets > 0 {
		m.cache = newDCache(m.Cfg.Cache)
	} else {
		m.cache = nil
	}
	m.storeBuf = m.storeBuf[:0]
	m.sb.init()
	m.golden = [isa.NumRegs]uint64{}
	m.hot = false
	m.recalcNextEvent()
	m.pathLen = 0
	m.logPtr = m.logBase
	m.retryPC = -1
	m.retryCount = 0
	m.livelocked = false
	if m.preemptDone != nil {
		m.nextPoll = m.pollStride
	}
	m.halted = false
}

// pendingFault is one scheduled register corruption (mask of bits to
// flip in the destination value).
type pendingFault struct {
	step int64
	mask uint64
}

// pendingMemFault is one scheduled memory-word corruption.
type pendingMemFault struct {
	step int64
	addr int64
	mask uint64
}

// pendingNested is one scheduled recovery-triggered corruption.
type pendingNested struct {
	after int64
	mask  uint64
}

// recalcNextEvent recomputes the earliest step any scheduled injection
// can fire. Boundary faults prime at their arming step and nested faults
// fire only after a recovery — which itself requires an earlier event —
// so the step-scheduled queue heads cover every activation path (a
// nested fault armed with after <= 0 is the one exception, handled at
// injection time by forcing the machine hot from step zero).
func (m *Machine) recalcNextEvent() {
	next := int64(math.MaxInt64)
	if len(m.faultAt) > 0 && m.faultAt[0].step < next {
		next = m.faultAt[0].step
	}
	if len(m.memFaultAt) > 0 && m.memFaultAt[0].step < next {
		next = m.memFaultAt[0].step
	}
	if len(m.boundaryAt) > 0 && m.boundaryAt[0].step < next {
		next = m.boundaryAt[0].step
	}
	if len(m.flipAt) > 0 && m.flipAt[0] < next {
		next = m.flipAt[0]
	}
	for _, nf := range m.nestedAt {
		if nf.after <= 0 {
			next = 0
		}
	}
	m.nextEvent = next
}

// hotStride is the interval, in dynamic instructions, at which a hot
// machine checks whether it can go cold again.
const hotStride = 1024

// switchMode makes the mode decision due at step seq. A cold machine goes
// hot: from here on every step polls the injection queues and maintains
// the golden mirror, which is seeded from the architectural file —
// correct because no fault is in flight, so the two are identical. A hot
// machine goes cold once settled, and otherwise decides again hotStride
// instructions later.
func (m *Machine) switchMode(seq int64) {
	switch {
	case !m.hot:
		m.hot = true
		m.golden = m.Regs
		m.nextEvent = seq + hotStride
	case m.settled():
		m.hot = false
		m.recalcNextEvent()
	default:
		m.nextEvent = seq + hotStride
	}
}

// settled reports whether no fault is pending or in flight: every
// injection queue is empty, no wrong path or recovery re-entry is open,
// and no register diverges from the golden mirror. From there on hot and
// cold execution are the same: a detection or recovery needs a tainted
// register or a wrong path, golden loads read the memory the
// architectural ones do, and so the mirror would only copy Regs.
func (m *Machine) settled() bool {
	return len(m.faultAt) == 0 && len(m.memFaultAt) == 0 && len(m.boundaryAt) == 0 &&
		len(m.primed) == 0 && len(m.flipAt) == 0 && len(m.nestedAt) == 0 &&
		!m.wrongPath && !m.justRecovered && m.Regs == m.golden
}

// InjectFault schedules a single-bit corruption of the destination value
// of the first register-writing instruction executed at or after the
// step'th dynamic instruction (recovery instrumentation and redundant
// copies are outside the fault sphere and are skipped over).
func (m *Machine) InjectFault(step int64, bit uint) {
	m.InjectFaultMask(step, 1<<(bit%64))
}

// InjectFaultMask is InjectFault generalized to an arbitrary flip mask
// (multi-bit masks model burst faults).
func (m *Machine) InjectFaultMask(step int64, mask uint64) {
	i := 0
	for i < len(m.faultAt) && m.faultAt[i].step < step {
		i++
	}
	m.faultAt = append(m.faultAt, pendingFault{})
	copy(m.faultAt[i+1:], m.faultAt[i:])
	m.faultAt[i] = pendingFault{step: step, mask: mask}
	m.recalcNextEvent()
}

// InjectMemFault schedules a corruption of memory word addr at the
// step'th dynamic instruction: the current value of the word — in the
// store buffer when an entry is outstanding, else backing memory — has
// the mask bits flipped. Register-level redundancy (DMR/TMR shadow
// copies) does not cover memory, so these faults model the ECC-gap the
// AutoCheck line of work targets: they surface as silent data
// corruptions, crashes, or livelocks rather than detections.
func (m *Machine) InjectMemFault(step, addr int64, mask uint64) {
	i := 0
	for i < len(m.memFaultAt) && m.memFaultAt[i].step < step {
		i++
	}
	m.memFaultAt = append(m.memFaultAt, pendingMemFault{})
	copy(m.memFaultAt[i+1:], m.memFaultAt[i:])
	m.memFaultAt[i] = pendingMemFault{step: step, addr: addr, mask: mask}
	m.recalcNextEvent()
}

// InjectBoundaryFault schedules a region-boundary fault: armed at the
// step'th dynamic instruction, primed by the next MARK executed, and
// fired on the first register write after that boundary. It stresses
// corruption immediately after a region commit, where recovery has the
// maximal re-execution distance and the §4.4 live-in invariant carries
// the entire burden.
func (m *Machine) InjectBoundaryFault(step int64, mask uint64) {
	i := 0
	for i < len(m.boundaryAt) && m.boundaryAt[i].step < step {
		i++
	}
	m.boundaryAt = append(m.boundaryAt, pendingFault{})
	copy(m.boundaryAt[i+1:], m.boundaryAt[i:])
	m.boundaryAt[i] = pendingFault{step: step, mask: mask}
	m.recalcNextEvent()
}

// InjectNestedFault schedules a corruption of the first register write
// executed once Stats.Recoveries reaches after — i.e. a fault injected
// during the re-execution a previous recovery started, testing
// recovery-under-failure. If no recovery ever happens the fault stays
// vacuous.
func (m *Machine) InjectNestedFault(after int64, mask uint64) {
	i := 0
	for i < len(m.nestedAt) && m.nestedAt[i].after < after {
		i++
	}
	m.nestedAt = append(m.nestedAt, pendingNested{})
	copy(m.nestedAt[i+1:], m.nestedAt[i:])
	m.nestedAt[i] = pendingNested{after: after, mask: mask}
	m.recalcNextEvent()
}

// InjectControlFlowError schedules a branch-direction failure: the first
// conditional branch executed at or after the step'th dynamic instruction
// goes the wrong way. The wrong path executes speculatively (stores stay
// in the buffer) until the next region boundary's control-flow
// verification detects the failure and recovery re-executes from rp
// (§2.3, "tolerating control flow errors").
func (m *Machine) InjectControlFlowError(step int64) {
	i := 0
	for i < len(m.flipAt) && m.flipAt[i] < step {
		i++
	}
	m.flipAt = append(m.flipAt, 0)
	copy(m.flipAt[i+1:], m.flipAt[i:])
	m.flipAt[i] = step
	m.recalcNextEvent()
}

// noteFault records a materialized fault.
func (m *Machine) noteFault() {
	m.Stats.Faults++
	if m.Stats.FirstFaultStep < 0 {
		m.Stats.FirstFaultStep = m.Stats.DynInstrs
	}
}

// noteDetect records a detection for the latency statistics.
func (m *Machine) noteDetect() {
	if m.Stats.FirstDetectStep < 0 {
		m.Stats.FirstDetectStep = m.Stats.DynInstrs
	}
}

// detectErr converts a failed recovery into the right sentinel.
func (m *Machine) detectErr() error {
	if m.livelocked {
		return ErrLivelock
	}
	return ErrDetectedUnrecoverable
}

// MaxArgs is the number of integer arguments Run passes in registers.
const MaxArgs = 4

// Run executes the program with up to MaxArgs integer arguments,
// returning the value of r0 at HALT.
func (m *Machine) Run(args ...uint64) (uint64, error) {
	for i, a := range args {
		if i >= MaxArgs {
			return 0, errors.New("machine: more than 4 integer arguments")
		}
		m.Regs[i] = a
	}
	m.PC = m.P.Entry
	m.rp = m.PC
	if m.Cfg.Recovery == RecoverCheckpointLog {
		// The log pointer lives in rp (free in non-idempotent binaries);
		// take the initial, cost-free register checkpoint.
		m.Regs[isa.RP] = uint64(m.logBase)
		m.takeCheckpoint()
	}
	var wdBudget int64
	if m.Cfg.WatchdogRef > 0 {
		f := m.Cfg.WatchdogFactor
		if f <= 0 {
			f = 16
		}
		// The slack absorbs instrumentation and recovery overhead on
		// short programs.
		wdBudget = int64(float64(m.Cfg.WatchdogRef)*f) + 4096
	}
	for !m.halted {
		// Each check below fires once DynInstrs exceeds a bound, so exec
		// runs straight to the smallest bound (and at least one
		// instruction): every limit trips at the same instruction count
		// as a check after every instruction would.
		last := m.Cfg.MaxSteps
		if wdBudget > 0 {
			last = min(last, wdBudget)
		}
		if m.preemptDone != nil {
			last = min(last, m.nextPoll-1)
		}
		if err := m.exec(max(last, m.Stats.DynInstrs)); err != nil {
			return 0, err
		}
		if m.preemptDone != nil && m.Stats.DynInstrs >= m.nextPoll {
			select {
			case <-m.preemptDone:
				return 0, fmt.Errorf("%w after %d instructions: %w",
					ErrPreempted, m.Stats.DynInstrs, context.Cause(m.preemptCtx))
			default:
				m.nextPoll = m.Stats.DynInstrs + m.pollStride
			}
		}
		if wdBudget > 0 && m.Stats.DynInstrs > wdBudget {
			return 0, fmt.Errorf("%w: %d dynamic instructions against a fault-free reference of %d",
				ErrLivelock, m.Stats.DynInstrs, m.Cfg.WatchdogRef)
		}
		if m.Stats.DynInstrs > m.Cfg.MaxSteps {
			return 0, fmt.Errorf("machine: step limit (%d) exceeded", m.Cfg.MaxSteps)
		}
	}
	return m.Regs[0], nil
}

// loadMem reads addr with O(1) store-buffer forwarding; ok is false for
// an out-of-range address (callers produce the error off the hot path).
func (m *Machine) loadMem(addr int64) (val uint64, ok bool) {
	if addr <= 0 || addr >= int64(len(m.Mem)) {
		return 0, false
	}
	if len(m.storeBuf) > 0 {
		if pos, hit := m.sb.lookup(addr); hit {
			return m.storeBuf[pos].val, true
		}
	}
	return m.Mem[addr], true
}

// storeMem writes addr (into the region buffer when buffering); ok is
// false for an out-of-range address.
func (m *Machine) storeMem(addr int64, val uint64) (ok bool) {
	if addr <= 0 || addr >= int64(len(m.Mem)) {
		return false
	}
	if m.Cfg.BufferStores {
		m.sb.insert(addr, int32(len(m.storeBuf)))
		m.storeBuf = append(m.storeBuf, sbEntry{addr, val})
		return true
	}
	m.Mem[addr] = val
	return true
}

// loadErr/storeErr format the out-of-range diagnostics (slow path only).
func (m *Machine) loadErr(addr int64) error {
	return fmt.Errorf("machine: load from invalid address %d (pc=%d, fn=%s)", addr, m.PC, m.fn())
}

func (m *Machine) storeErr(addr int64) error {
	return fmt.Errorf("machine: store to invalid address %d (pc=%d, fn=%s)", addr, m.PC, m.fn())
}

func (m *Machine) fn() string {
	if m.PC >= 0 && m.PC < len(m.P.FuncOf) {
		return m.P.FuncOf[m.PC]
	}
	return "?"
}

// commitRegion commits buffered stores and opens a new region at pc.
func (m *Machine) commitRegion() {
	if len(m.storeBuf) > 0 {
		for _, e := range m.storeBuf {
			m.Mem[e.addr] = e.val
		}
		m.storeBuf = m.storeBuf[:0]
		m.sb.reset()
	}
	m.rp = m.PC
	m.rpSP = m.Regs[isa.SP]
	m.rpLR = m.Regs[isa.LR]
	if m.Cfg.TrackPaths {
		if m.pathLen > 0 {
			m.Stats.PathLens[m.pathLen]++
		}
		m.pathLen = 0
	}
}

// discardRegion drops the speculative store buffer (recovery).
func (m *Machine) discardRegion() {
	if len(m.storeBuf) > 0 {
		m.storeBuf = m.storeBuf[:0]
		m.sb.reset()
	}
}

// recoverFault performs the configured recovery action. Returns false when
// the scheme cannot recover (RecoverNone) or the bounded re-execution
// retry counter overflowed (m.livelocked is then set and callers escalate
// to ErrLivelock via detectErr).
func (m *Machine) recoverFault() bool {
	m.Stats.Detections++
	m.noteDetect()
	// Bounded re-execution: count consecutive recoveries restarting at
	// the same point. A fresh fault during every re-execution (nested
	// injection) would otherwise respin forever.
	switch m.Cfg.Recovery {
	case RecoverIdempotence, RecoverCheckpointLog:
		target := m.rp
		if m.Cfg.Recovery == RecoverCheckpointLog {
			target = m.ckptPC
		}
		if m.retryPC == target {
			m.retryCount++
		} else {
			m.retryPC, m.retryCount = target, 1
		}
		limit := m.Cfg.MaxRegionRetries
		if limit <= 0 {
			limit = 64
		}
		if m.retryCount > limit {
			m.livelocked = true
			return false
		}
	}
	switch m.Cfg.Recovery {
	case RecoverIdempotence:
		// Discard speculative stores, restore the calling-convention
		// registers snapshotted at the boundary, clear taint, and
		// re-execute from the region entry held in rp (§6.3).
		m.discardRegion()
		m.Regs[isa.SP] = m.rpSP
		m.Regs[isa.LR] = m.rpLR
		// The calling-convention snapshot is trusted (verified at the
		// boundary), so the golden mirror follows it.
		m.golden[isa.SP] = m.rpSP
		m.golden[isa.LR] = m.rpLR
		m.wrongPath = false
		m.justRecovered = true
		m.PC = m.rp
		m.pathLen = 0
		m.Stats.Recoveries++
		// Re-execution costs cycles; the pipeline model just keeps
		// counting, which is exactly the re-execution penalty.
		return true
	case RecoverCheckpointLog:
		// Unwind the undo log back to the checkpoint, restore the
		// register checkpoint, and resume from the checkpoint PC.
		for p := m.logPtr - 2; p >= m.logBase; p -= 2 {
			val, addr := m.Mem[p], int64(m.Mem[p+1])
			if addr > 0 && addr < int64(len(m.Mem)) {
				m.Mem[addr] = val
			}
		}
		m.logPtr = m.logBase
		m.Regs = m.ckptRegs
		// The checkpoint was verified clean when taken.
		m.golden = m.ckptRegs
		// A wrong-path excursion is undone by the rollback; without this
		// the stale flag would re-trigger recovery at HALT forever.
		m.wrongPath = false
		m.PC = m.ckptPC
		m.Stats.Recoveries++
		return true
	default:
		return false
	}
}

// takeCheckpoint snapshots registers and the resume PC for the
// checkpoint-and-log scheme and resets the log (modelled as free, per the
// paper's optimistic assumption for register checkpointing and polling).
func (m *Machine) takeCheckpoint() {
	m.Regs[isa.RP] = uint64(m.logBase)
	// The log pointer is recovery infrastructure: its golden mirror
	// follows the reset (otherwise every checkpoint would look like a
	// divergence at the next wrap).
	m.golden[isa.RP] = uint64(m.logBase)
	m.ckptRegs = m.Regs
	m.ckptPC = m.PC
	m.logPtr = m.logBase
	// A verified checkpoint is forward progress: reset the retry state.
	m.retryPC = -1
	m.retryCount = 0
}

// tainted reports whether r's architectural value diverges from the
// golden mirror. While the machine is cold the mirror is not maintained
// — and no fault is in flight — so nothing is tainted by construction.
func (m *Machine) tainted(r uint8) bool {
	return m.hot && m.Regs[r] != m.golden[r]
}

// anyTaint reports whether any register diverges (checked at region
// boundaries and checkpoints).
func (m *Machine) anyTaint() bool {
	if !m.hot {
		return false
	}
	return m.Regs != m.golden
}

// reconcile resynchronizes the golden mirror for registers whose
// corruption has proven dead: after a full re-execution of a region, any
// remaining divergence is in registers the region never rewrites (so the
// program never reads them before a rewrite either). Real DMR
// implementations re-copy the live set at synchronization points; this is
// the simulator's equivalent, and it breaks the boundary-recovery
// livelock a dead corrupted register would otherwise cause.
func (m *Machine) reconcile() {
	m.golden = m.Regs
}

// IntRegs returns a copy of the architectural integer register file
// (r0..r15), in register order.
func (m *Machine) IntRegs() []uint64 {
	out := make([]uint64, isa.NumIntRegs)
	copy(out, m.Regs[:isa.NumIntRegs])
	return out
}

// FloatRegs returns a copy of the architectural floating-point register
// file (f0..f31), in register order.
func (m *Machine) FloatRegs() []uint64 {
	out := make([]uint64, isa.NumFloatRegs)
	copy(out, m.Regs[isa.NumIntRegs:])
	return out
}
