// Package alias implements the base-object alias analysis the region
// construction relies on (the paper uses "LLVM's basic alias analysis
// infrastructure", §5; this is the equivalent for our IR).
//
// Every address-typed value is resolved to an abstract location: a base
// object (a specific alloca, a specific global, a pointer parameter, or
// unknown) plus an optional constant offset. Two addresses may alias only
// if their base objects may be the same memory object; they must alias if
// both base and offset are provably equal.
//
// The analysis also classifies storage for the paper's Table 2 split:
// registers and local stack ("pseudoregisters", compiler-controlled) vs
// heap, global and non-local stack ("memory", fixed by program semantics).
package alias

import (
	"math/bits"

	"idemproc/internal/ir"
)

// BaseKind discriminates base objects.
type BaseKind uint8

const (
	// BaseUnknown means the address could point anywhere non-local
	// (including escaped allocas).
	BaseUnknown BaseKind = iota
	// BaseAlloca is a specific stack allocation in this function.
	BaseAlloca
	// BaseGlobal is a specific module global.
	BaseGlobal
	// BaseParam is a pointer passed in by the caller: heap, global or a
	// caller frame ("non-local stack"). Distinct parameters may alias
	// each other and any global, but never a non-escaped local alloca.
	BaseParam
)

// Loc is an abstract location.
type Loc struct {
	Kind BaseKind
	// Obj identifies the base object: the OpAlloca or OpParam value, used
	// by identity. Nil for BaseUnknown.
	Obj *ir.Value
	// Global is the global's name for BaseGlobal.
	Global string
	// Off is the constant word offset from the base; valid only if
	// KnownOff.
	Off      int64
	KnownOff bool
}

// Info holds the per-function analysis results. Its facts are indexed
// by value ID, so every value it is asked about must be one of F's.
type Info struct {
	F *ir.Func
	// locs[id] is the abstract location of a resolved I64 value; state[id]
	// says whether it is resolved.
	locs  []Loc
	state []resolveState
	// escaped[id] marks allocas whose address flows to memory, a call
	// argument, or a return value — they may then alias unknown pointers.
	escaped []bool
}

// resolveState tracks one value's resolution.
type resolveState uint8

const (
	unresolved resolveState = iota
	// visiting marks a value whose resolution is in progress: meeting it
	// again means a φ cycle.
	visiting
	resolved
)

// Compute analyses f.
func Compute(f *ir.Func) *Info {
	n := f.NumValues()
	in := &Info{F: f, locs: make([]Loc, n), state: make([]resolveState, n), escaped: make([]bool, n)}
	in.resolveAll()
	in.computeEscapes()
	return in
}

// LocOf returns the abstract location of an address value.
func (in *Info) LocOf(addr *ir.Value) Loc { return in.resolve(addr) }

func (in *Info) resolveAll() {
	for _, b := range in.F.Blocks {
		for _, v := range b.Instrs {
			if v.Type == ir.I64 {
				in.resolve(v)
			}
		}
	}
}

// resolve returns v's location, resolving v and the values it derives
// from on first use. A value met again while its resolution is in
// progress, around a φ cycle, reads as unknown, so the location found on
// a cycle depends on where resolution entered it: resolveAll must keep
// resolving in program order.
func (in *Info) resolve(v *ir.Value) Loc {
	if v.ID >= len(in.state) {
		// v was made after Compute: make room for every value made since.
		n := max(v.ID+1, in.F.NumValues())
		in.locs = append(in.locs, make([]Loc, n-len(in.locs))...)
		in.state = append(in.state, make([]resolveState, n-len(in.state))...)
	}
	switch in.state[v.ID] {
	case resolved:
		return in.locs[v.ID]
	case visiting:
		// φ cycle: resolved by the caller's merge.
		return Loc{Kind: BaseUnknown}
	}
	in.state[v.ID] = visiting
	var l Loc
	switch v.Op {
	case ir.OpAlloca:
		l = Loc{Kind: BaseAlloca, Obj: v, KnownOff: true}
	case ir.OpGlobal:
		l = Loc{Kind: BaseGlobal, Global: v.Aux, KnownOff: true}
	case ir.OpParam:
		l = Loc{Kind: BaseParam, Obj: v, KnownOff: true}
	case ir.OpCopy:
		l = in.resolve(v.Args[0])
	case ir.OpAdd, ir.OpSub:
		x, y := v.Args[0], v.Args[1]
		if c, ok := constOf(y); ok {
			l = in.resolve(x)
			if l.KnownOff {
				if v.Op == ir.OpAdd {
					l.Off += c
				} else {
					l.Off -= c
				}
			}
		} else if c, ok := constOf(x); ok && v.Op == ir.OpAdd {
			l = in.resolve(y)
			if l.KnownOff {
				l.Off += c
			}
		} else if v.Op == ir.OpAdd {
			// base + variable index: keep the base, lose the offset. When
			// one side is a concrete object (alloca/global) and the other
			// is param-derived or unknown, the concrete object is the
			// base and the other side an integer index — adding two
			// pointers has no meaning in this IR.
			lx := in.resolve(x)
			ly := in.resolve(y)
			concrete := func(l Loc) bool { return l.Kind == BaseAlloca || l.Kind == BaseGlobal }
			switch {
			case concrete(lx) && !concrete(ly):
				l = Loc{Kind: lx.Kind, Obj: lx.Obj, Global: lx.Global}
			case concrete(ly) && !concrete(lx):
				l = Loc{Kind: ly.Kind, Obj: ly.Obj, Global: ly.Global}
			case lx.Kind == BaseParam && ly.Kind == BaseUnknown:
				l = Loc{Kind: BaseParam, Obj: lx.Obj}
			case ly.Kind == BaseParam && lx.Kind == BaseUnknown:
				l = Loc{Kind: BaseParam, Obj: ly.Obj}
			default:
				l = Loc{Kind: BaseUnknown}
			}
		} else {
			l = Loc{Kind: BaseUnknown}
		}
	case ir.OpPhi:
		// Merge: same base across all inputs keeps the base.
		merged := Loc{}
		first := true
		for _, a := range v.Args {
			if a == nil {
				continue
			}
			la := in.resolve(a)
			if first {
				merged = la
				first = false
				continue
			}
			if !sameBase(merged, la) {
				merged = Loc{Kind: BaseUnknown}
				break
			}
			if !merged.KnownOff || !la.KnownOff || merged.Off != la.Off {
				merged.KnownOff = false
				merged.Off = 0
			}
		}
		l = merged
	default:
		l = Loc{Kind: BaseUnknown}
	}
	in.state[v.ID] = resolved
	in.locs[v.ID] = l
	return l
}

func constOf(v *ir.Value) (int64, bool) {
	if v.Op == ir.OpConst && v.Type == ir.I64 {
		return v.ConstInt, true
	}
	return 0, false
}

func sameBase(a, b Loc) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case BaseAlloca, BaseParam:
		return a.Obj == b.Obj
	case BaseGlobal:
		return a.Global == b.Global
	}
	return true // both unknown
}

// computeEscapes finds allocas whose addresses leak: any value derived
// from the alloca by copy/φ/arithmetic that is stored *as data*, passed to
// a call, or returned marks the alloca escaped.
func (in *Info) computeEscapes() {
	var allocas []*ir.Value
	for _, b := range in.F.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpAlloca {
				allocas = append(allocas, v)
			}
		}
	}
	if len(allocas) == 0 {
		return
	}
	// derived[id*words:(id+1)*words] is the set of allocas, by their index
	// in allocas, whose address value id may carry.
	words := (len(allocas) + 63) / 64
	derived := make([]uint64, in.F.NumValues()*words)
	set := func(v *ir.Value) []uint64 { return derived[v.ID*words : (v.ID+1)*words] }
	for i, a := range allocas {
		set(a)[i/64] |= 1 << (i % 64)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range in.F.Blocks {
			for _, v := range b.Instrs {
				switch v.Op {
				case ir.OpCopy, ir.OpPhi, ir.OpAdd, ir.OpSub:
					dst := set(v)
					for _, a := range v.Args {
						if a == nil {
							continue
						}
						for w, m := range set(a) {
							if m&^dst[w] != 0 {
								dst[w] |= m
								changed = true
							}
						}
					}
				}
			}
		}
	}
	escape := func(v *ir.Value) {
		for w, m := range set(v) {
			for ; m != 0; m &= m - 1 {
				in.escaped[allocas[w*64+bits.TrailingZeros64(m)].ID] = true
			}
		}
	}
	for _, b := range in.F.Blocks {
		for _, v := range b.Instrs {
			switch v.Op {
			case ir.OpStore:
				escape(v.Args[1]) // address stored as data
			case ir.OpCall, ir.OpRet:
				for _, a := range v.Args {
					escape(a)
				}
			}
		}
	}
}

// Escaped reports whether the given alloca's address escapes the function.
func (in *Info) Escaped(alloca *ir.Value) bool {
	return alloca.ID < len(in.escaped) && in.escaped[alloca.ID]
}

// MayAlias reports whether the addresses a and b may refer to the same
// word of memory.
func (in *Info) MayAlias(a, b *ir.Value) bool {
	la, lb := in.LocOf(a), in.LocOf(b)
	return in.mayAliasLoc(la, lb)
}

func (in *Info) mayAliasLoc(la, lb Loc) bool {
	if la.Kind == BaseUnknown || lb.Kind == BaseUnknown {
		// Unknown aliases everything except non-escaped allocas.
		other := lb
		if lb.Kind == BaseUnknown {
			other = la
		}
		if other.Kind == BaseAlloca && !in.Escaped(other.Obj) {
			return false
		}
		return true
	}
	if la.Kind != lb.Kind {
		// Alloca never aliases a distinct-kind base unless escaped and
		// the other side is param-like.
		if la.Kind == BaseAlloca || lb.Kind == BaseAlloca {
			al := la
			other := lb
			if lb.Kind == BaseAlloca {
				al, other = lb, la
			}
			return in.Escaped(al.Obj) && other.Kind == BaseParam
		}
		// Param may alias globals (caller could pass &global).
		return true
	}
	switch la.Kind {
	case BaseAlloca:
		if la.Obj != lb.Obj {
			return false
		}
	case BaseGlobal:
		if la.Global != lb.Global {
			return false
		}
	case BaseParam:
		if la.Obj != lb.Obj {
			return true // two different pointer params may overlap
		}
	}
	// Same base: distinct known offsets don't alias.
	if la.KnownOff && lb.KnownOff && la.Off != lb.Off {
		return false
	}
	return true
}

// MustAlias reports whether a and b provably refer to the same word.
func (in *Info) MustAlias(a, b *ir.Value) bool {
	if a == b {
		return true
	}
	la, lb := in.LocOf(a), in.LocOf(b)
	if la.Kind == BaseUnknown || lb.Kind == BaseUnknown {
		return false
	}
	if !sameBase(la, lb) {
		return false
	}
	if la.Kind == BaseParam && la.Obj != lb.Obj {
		return false
	}
	return la.KnownOff && lb.KnownOff && la.Off == lb.Off
}

// StorageClass names the Table 2 category of an address for reporting.
type StorageClass uint8

const (
	// StorageLocalStack is function-local stack memory (non-escaped
	// alloca) — a compiler-controlled "pseudoregister" resource.
	StorageLocalStack StorageClass = iota
	// StorageMemory is heap, global or non-local stack memory — fixed by
	// program semantics.
	StorageMemory
)

func (s StorageClass) String() string {
	if s == StorageLocalStack {
		return "local-stack"
	}
	return "memory"
}

// ClassOf classifies the storage an address refers to.
func (in *Info) ClassOf(addr *ir.Value) StorageClass {
	l := in.LocOf(addr)
	if l.Kind == BaseAlloca && !in.Escaped(l.Obj) {
		return StorageLocalStack
	}
	return StorageMemory
}
