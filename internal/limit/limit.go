// Package limit implements the paper's §3 limit study: how long would
// idempotent paths be given perfect runtime information?
//
// A Tracker observes the execution of a conventionally compiled binary
// and, per category, detects dynamic clobber antidependences — a write to
// a location that was read earlier in the current region without an
// intervening write. Each clobber ends the current idempotent path; path
// lengths are measured in executed instructions, "optimistically ... in
// the absence of explicit (static) region markings", exactly like the
// paper's gem5 measurement.
//
// Three categories mirror Figure 4:
//
//	Semantic           — clobbers on heap/global/non-local-stack memory
//	                     only; calls are crossed freely (the optimistic
//	                     inter-procedural variant, which also ignores
//	                     calling-convention antidependences).
//	SemanticCalls      — the same, with regions additionally split at
//	                     call and return boundaries (what an
//	                     intra-procedural compiler can hope for).
//	SemanticArtificial — additionally counts artificial clobbers: on
//	                     registers and on local stack slots (register
//	                     spills) — what a conventional compiler actually
//	                     delivers.
package limit

import (
	"idemproc/internal/isa"
	"idemproc/internal/machine"
)

// Category indexes the three measurement modes.
type Category int

const (
	// Semantic is the inter-procedural semantic-clobbers-only limit.
	Semantic Category = iota
	// SemanticCalls splits regions at call boundaries too.
	SemanticCalls
	// SemanticArtificial adds register and spill-slot clobbers.
	SemanticArtificial
	numCategories
)

func (c Category) String() string {
	switch c {
	case Semantic:
		return "semantic"
	case SemanticCalls:
		return "semantic+calls"
	case SemanticArtificial:
		return "semantic+calls+artificial"
	}
	return "?"
}

// accessState is the per-location per-region state machine.
type accessState uint8

const (
	stNone accessState = iota
	stReadClean
	stWritten
)

// memCell is one memory word's state: state is current only while
// epoch matches the category's epoch, so ending a path resets every
// word at once.
type memCell struct {
	epoch int64
	state accessState
}

// catState is one category's tracking state.
type catState struct {
	epoch int64
	// mem is indexed by word address and grown on demand: the machine
	// reports only addresses inside its memory, which is small and
	// dense, so a slice costs less than a map per access.
	mem      []memCell
	regEpoch [48]int64
	regState [48]accessState
	pathLen  int64
	sumLen   int64
	numPaths int64
	maxLen   int64
}

func (cs *catState) endPath() {
	if cs.pathLen > 0 {
		cs.sumLen += cs.pathLen
		cs.numPaths++
		if cs.pathLen > cs.maxLen {
			cs.maxLen = cs.pathLen
		}
	}
	cs.pathLen = 0
	cs.epoch++
}

func (cs *catState) memAccess(addr int64, write bool) bool {
	if addr >= int64(len(cs.mem)) {
		cs.mem = append(cs.mem, make([]memCell, addr+1-int64(len(cs.mem)))...)
	}
	c := &cs.mem[addr]
	if c.epoch != cs.epoch {
		c.epoch = cs.epoch
		c.state = stNone
	}
	var clobber bool
	c.state, clobber = transition(c.state, write)
	return clobber
}

// transition advances the per-location state machine; reports a clobber
// (a write to a location read earlier in the region with no intervening
// write — the paper's "antidependence after the absence of a flow
// dependence").
func transition(st accessState, write bool) (accessState, bool) {
	if write {
		if st == stReadClean {
			return st, true
		}
		return stWritten, false
	}
	if st == stNone {
		return stReadClean, false
	}
	return st, false
}

func (cs *catState) regAccess(r isa.Reg, write bool) bool {
	i := int(r)
	if cs.regEpoch[i] != cs.epoch {
		cs.regEpoch[i] = cs.epoch
		cs.regState[i] = stNone
	}
	st, clobber := transition(cs.regState[i], write)
	cs.regState[i] = st
	return clobber
}

// memClass distinguishes local stack (current frame) from semantic memory.
type memClass uint8

const (
	memSemantic memClass = iota
	memLocalStack
)

// Tracker implements machine.Tracer for the limit study.
type Tracker struct {
	cats [numCategories]*catState
	// frameBases tracks sp at each function entry; the current frame is
	// [sp, top of frameBases).
	frameBases  []uint64
	pendingCall bool
}

var _ machine.Tracer = (*Tracker)(nil)

// NewTracker creates a tracker; attach it via machine.Config.Tracer and
// run the conventional binary.
func NewTracker() *Tracker {
	t := &Tracker{}
	for i := range t.cats {
		t.cats[i] = &catState{epoch: 1}
	}
	return t
}

// Call records a function call: the next instruction's sp is the callee's
// frame top.
func (t *Tracker) Call() {
	t.pendingCall = true
	t.cats[SemanticCalls].endPath()
	t.cats[SemanticArtificial].endPath()
}

// Ret records a function return.
func (t *Tracker) Ret() {
	if len(t.frameBases) > 0 {
		t.frameBases = t.frameBases[:len(t.frameBases)-1]
	}
	t.cats[SemanticCalls].endPath()
	t.cats[SemanticArtificial].endPath()
}

func (t *Tracker) classify(addr int64, sp uint64) memClass {
	top := ^uint64(0)
	if len(t.frameBases) > 0 {
		top = t.frameBases[len(t.frameBases)-1]
	}
	if uint64(addr) >= sp && uint64(addr) < top {
		return memLocalStack
	}
	return memSemantic
}

// Instr observes one executed instruction. A memory operation's memAddr
// must be a word address inside the machine's memory, which the machine
// checks before it reports the instruction.
func (t *Tracker) Instr(in isa.Instr, memAddr int64, sp uint64) {
	if t.pendingCall {
		// First instruction after CALL: sp is still the caller's; the
		// callee prologue adjusts it next. Record the frame top.
		t.frameBases = append(t.frameBases, sp)
		t.pendingCall = false
	}
	if in.Shadow > 0 {
		return
	}

	// Clobber detection first: a clobbering write starts the NEW path (a
	// cut is placed before the write), so the instruction is counted
	// after any path it ends.

	// Memory accesses.
	switch in.Op {
	case isa.LDR, isa.FLDR:
		t.memAccess(memAddr, sp, false)
	case isa.STR, isa.FSTR:
		t.memAccess(memAddr, sp, true)
	}

	// Register accesses (artificial category only). The stack pointer,
	// link register and rp belong to the calling convention, which the
	// paper's study explicitly sets aside.
	cs := t.cats[SemanticArtificial]
	srcs, n := in.Reads()
	for _, r := range srcs[:n] {
		if !r.Reserved() {
			cs.regAccess(r, false) // reads never clobber
		}
	}
	if in.Op.WritesRd() && !in.Rd.Reserved() && cs.regAccess(in.Rd, true) {
		cs.endPath()
		// The clobbering write opens the new region with the location
		// in written state.
		cs.regAccess(in.Rd, true)
	}

	for c := Category(0); c < numCategories; c++ {
		t.cats[c].pathLen++
	}
}

func (t *Tracker) memAccess(addr int64, sp uint64, write bool) {
	class := t.classify(addr, sp)
	for c := Category(0); c < numCategories; c++ {
		cs := t.cats[c]
		track := false
		switch class {
		case memSemantic:
			track = true
		case memLocalStack:
			// Local frame traffic is compiler-controlled: ignored by the
			// semantic categories (the paper's optimistic assumption that
			// call frames don't overwrite), artificial in the third.
			track = c == SemanticArtificial
		}
		if !track {
			continue
		}
		if cs.memAccess(addr, write) {
			cs.endPath()
			cs.memAccess(addr, write)
		}
	}
}

// Result summarizes one category's measurement.
type Result struct {
	Category Category
	// AvgPathLen is the mean dynamic idempotent path length.
	AvgPathLen float64
	// Paths is the number of completed paths; MaxPathLen the longest.
	Paths      int64
	MaxPathLen int64
}

// Results finalizes and returns all three categories (open paths are
// closed first).
func (t *Tracker) Results() [3]Result {
	var out [3]Result
	for c := Category(0); c < numCategories; c++ {
		cs := t.cats[c]
		cs.endPath()
		r := Result{Category: c, Paths: cs.numPaths, MaxPathLen: cs.maxLen}
		if cs.numPaths > 0 {
			r.AvgPathLen = float64(cs.sumLen) / float64(cs.numPaths)
		}
		out[c] = r
	}
	return out
}
