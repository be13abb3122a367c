package machine

import "idemproc/internal/isa"

// pipeline is the two-issue in-order timing model. It tracks, per
// architectural register (and per shadow bank), the cycle when its value
// becomes available, and issues up to two instructions per cycle subject
// to: operands ready, at most one memory operation per cycle, and a taken
// or mispredicted branch ending the issue group.
//
// All operand and destination slots are precomputed by the predecode
// pass: decoded.psrc0/psrc1/pdst are direct indices into ready[] with the
// shadow-bank offset already folded in, so accounting is pure array
// arithmetic with no per-instruction operand re-derivation. An absent
// source operand reads zeroSlot and an untracked result writes sinkSlot,
// so every instruction reads two slots and writes one, and the uint8
// slot indices into a 256-entry array need no bounds checks.
type pipeline struct {
	cycle int64
	// slots counts the instructions issued in the current cycle and
	// memUsed is 1 once one of them used the memory port. Both are
	// integers so the hazard tests compile to conditional moves.
	slots, memUsed int64
	// ready[r + 48*bank] is the availability cycle of register r.
	ready [256]int64
	// extraLat extends the next accounted instruction's result latency
	// (cache miss on a load).
	extraLat int64
}

// The sentinel slots past the three register banks.
const (
	// zeroSlot is the source slot of an absent operand: never written,
	// so it always reads 0, which never delays issue.
	zeroSlot = 3 * isa.NumRegs
	// sinkSlot is the destination slot of an instruction whose result
	// the model does not track: written, never read.
	sinkSlot = zeroSlot + 1
)

// mispredictPenalty models the front-end refill after a conditional
// branch misprediction.
const mispredictPenalty = 8

// account issues one predecoded instruction into the model and returns
// the cycle count after it (the machine's Stats.Cycles). The issue state
// is worked on in locals and stored once, so the hazard tests select
// values instead of branching.
func (p *pipeline) account(d *decoded) int64 {
	cycle, slots, memUsed := p.cycle, p.slots, p.memUsed
	// Stall until operands are ready.
	if ready := max(p.ready[d.psrc0], p.ready[d.psrc1]); ready > cycle {
		cycle, slots, memUsed = ready, 0, 0
	}
	// Structural hazards: issue width and the single memory port (to a
	// memory operation, a group holding one already counts as full).
	if slots+2*(memUsed&int64(d.mem)) >= 2 {
		cycle, slots, memUsed = cycle+1, 0, 0
	}
	slots++
	memUsed |= int64(d.mem)
	if d.isBranch {
		slots = 2 // a branch ends the issue group
	}
	p.cycle, p.slots, p.memUsed = cycle, slots, memUsed

	// Result availability.
	p.ready[d.pdst] = cycle + d.lat + p.extraLat
	p.extraLat = 0
	return cycle + 1
}

// stall advances the clock by n > 0 cycles before the next instruction
// issues (the write-allocate fill of a store miss: nothing waits on a
// store, so the miss costs a short stall rather than a latency).
func (p *pipeline) stall(n int64) {
	p.cycle += n
	p.slots = 0
	p.memUsed = 0
}

// mispredict applies the static-prediction penalty after a conditional
// branch resolves against its predecoded prediction (backward predicted
// taken, forward predicted not-taken; unconditional branches, calls and
// returns predict perfectly through the BTB/RAS).
func (p *pipeline) mispredict() {
	p.cycle += mispredictPenalty
	p.slots = 0
	p.memUsed = 0
}
