package ssa

import "idemproc/internal/ir"

// PromoteAllocas rewrites single-word, non-escaping stack slots into
// pseudoregister assignments (the LLVM mem2reg equivalent). A slot is
// promotable when every use of its address is directly the address operand
// of a load or store. Loads become copies of the slot's current value and
// stores become named reassignments; a subsequent Build renames them into
// SSA, which is exactly the §4.1 transformation that turns would-be memory
// antidependences on scalar locals into artificial (register) ones that
// SSA then eliminates.
//
// PromoteAllocas must run before Build. It returns the number of slots
// promoted.
func PromoteAllocas(f *ir.Func) int {
	// Find promotable allocas: addrUses[id] counts an alloca's uses as a
	// load or store address, totalUses[id] its uses anywhere.
	n := f.NumValues()
	addrUses := make([]int32, n)
	totalUses := make([]int32, n)
	var allocas []*ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpAlloca && v.ConstInt == 1 {
				allocas = append(allocas, v)
			}
			for i, a := range v.Args {
				if a.Op != ir.OpAlloca {
					continue
				}
				totalUses[a.ID]++
				if (v.Op == ir.OpLoad && i == 0) || (v.Op == ir.OpStore && i == 0) {
					addrUses[a.ID]++
				}
			}
		}
	}
	var promote []*ir.Value
	for _, a := range allocas {
		if addrUses[a.ID] == totalUses[a.ID] {
			promote = append(promote, a)
		}
	}
	if len(promote) == 0 {
		return 0
	}
	// slot[id] is 1 + the alloca's index in promote, 0 if it stays;
	// varName and slotType are by that index.
	slot := make([]int32, n)
	varName := make([]string, len(promote))
	slotType := make([]ir.Type, len(promote))
	for i, a := range promote {
		slot[a.ID] = int32(i + 1)
		varName[i] = f.FreshName()
		slotType[i] = ir.I64
	}
	// slotOf returns the promote index of the slot at address a, or -1.
	slotOf := func(a *ir.Value) int {
		if a.ID < n {
			return int(slot[a.ID]) - 1
		}
		return -1
	}
	// Infer the slot's element type from its first typed access.
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			switch v.Op {
			case ir.OpLoad:
				if i := slotOf(v.Args[0]); i >= 0 {
					slotType[i] = v.Type
				}
			case ir.OpStore:
				if i := slotOf(v.Args[0]); i >= 0 {
					slotType[i] = v.Args[1].Type
				}
			}
		}
	}

	// Rewrite. Every promoted slot gets an initializing zero in the entry
	// block so a load on a path without stores reads a defined value.
	entry := f.Entry()
	for i, a := range promote {
		z := f.NewValue(ir.OpConst, slotType[i])
		z.Name = varName[i]
		// Replace the alloca instruction itself with the initializer.
		for j, v := range entry.Instrs {
			if v == a {
				entry.Instrs[j] = z
				z.Block = entry
				break
			}
		}
	}
	for _, b := range f.Blocks {
		for i, v := range b.Instrs {
			switch v.Op {
			case ir.OpLoad:
				if s := slotOf(v.Args[0]); s >= 0 {
					// Load becomes a read of the variable: a copy whose
					// argument names the variable (Build keys on Name).
					v.Op = ir.OpCopy
					v.Type = slotType[s]
					v.Args = []*ir.Value{anyDefOf(f, varName[s])}
				}
			case ir.OpStore:
				if s := slotOf(v.Args[0]); s >= 0 {
					// Store becomes a named reassignment.
					val := v.Args[1]
					v.Op = ir.OpCopy
					v.Type = val.Type
					v.Name = varName[s]
					v.Args = []*ir.Value{val}
					b.Instrs[i] = v
				}
			}
		}
	}
	return len(promote)
}

func anyDefOf(f *ir.Func, name string) *ir.Value {
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Name == name {
				return v
			}
		}
	}
	panic("ssa: no definition of " + name)
}
