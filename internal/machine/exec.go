package machine

import (
	"errors"
	"fmt"
	"math"

	"idemproc/internal/isa"
)

// Sentinel arithmetic errors, allocated once so the hot loop never
// constructs error values.
var (
	errDivZero = errors.New("machine: integer division by zero")
	errRemZero = errors.New("machine: integer remainder by zero")
)

// exec runs predecoded instructions against the architectural state and
// feeds the pipeline model until the machine halts, an instruction fails,
// or Stats.DynInstrs exceeds last; Run checks its limits in between. The
// fault-free path touches only the decoded record, the unified register
// file and the store buffer — no closures, no per-instruction queue
// polling, no golden-mirror writes, no heap allocation. Reaching the
// earliest scheduled injection step flips the machine hot, which
// activates the full fault machinery (injection queues, golden mirror,
// taint detection) until the faults have resolved (see switchMode).
func (m *Machine) exec(last int64) error {
	ops := m.code.ops
	cache := m.cache
	tracer := m.Cfg.Tracer
	ckptLog := m.Cfg.Recovery == RecoverCheckpointLog
	for m.Stats.DynInstrs <= last {
		pc := m.PC
		if pc < 0 || pc >= len(ops) {
			return fmt.Errorf("machine: pc %d out of range", pc)
		}
		d := &ops[pc]
		seq := m.Stats.DynInstrs
		m.Stats.DynInstrs++
		m.pathLen++

		if seq >= m.nextEvent {
			m.switchMode(seq)
		}
		hot := m.hot

		// Scheduled memory-word corruptions fire before the instruction
		// executes: flip the word's current value wherever it lives (the
		// youngest store-buffer entry forwards to loads, else backing memory).
		if hot {
			for len(m.memFaultAt) > 0 && seq >= m.memFaultAt[0].step {
				mf := m.memFaultAt[0]
				m.memFaultAt = m.memFaultAt[1:]
				hit := false
				if len(m.storeBuf) > 0 {
					if pos, ok := m.sb.lookup(mf.addr); ok {
						m.storeBuf[pos].val ^= mf.mask
						hit = true
					}
				}
				if !hit {
					if mf.addr <= 0 || mf.addr >= int64(len(m.Mem)) {
						continue // outside the address space: vacuous
					}
					m.Mem[mf.addr] ^= mf.mask
				}
				m.noteFault()
			}
		}

		// Redundant DMR/TMR copies are architecturally invisible: they only
		// occupy pipeline resources (their decoded records carry the shadow
		// bank's availability slots).
		if d.kind == dShadow {
			m.Stats.Cycles = m.pipe.account(d)
			m.PC = pc + 1
			continue
		}

		var memAddr int64
		nextPC := pc + 1

		switch d.kind {
		case dNop:
		case dLoad:
			memAddr = int64(m.Regs[d.rs1]) + d.imm
			v, ok := m.loadMem(memAddr)
			if !ok {
				// A corrupted address register (or a wrong-path walk) can
				// wander out of bounds before the scheme's check fires;
				// treat it as a detection.
				if (m.tainted(d.rs1) || m.wrongPath) && m.Cfg.Recovery != RecoverNone {
					if m.recoverFault() {
						m.Stats.Cycles = m.pipe.account(d)
						continue
					}
					if m.livelocked {
						return ErrLivelock
					}
				}
				return m.loadErr(memAddr)
			}
			m.Regs[d.rd] = v
			if hot {
				gAddr := int64(m.golden[d.rs1]) + d.imm
				gv, gok := m.loadMem(gAddr)
				if !gok {
					return m.loadErr(gAddr) // a real program error, not a fault artifact
				}
				m.golden[d.rd] = gv
			}
			m.Stats.Loads++
			if cache != nil {
				if cache.access(memAddr) {
					m.Stats.CacheHits++
				} else {
					m.Stats.CacheMisses++
					m.pipe.extraLat = missPenalty
				}
			}
		case dStore:
			memAddr = int64(m.Regs[d.rs1]) + d.imm
			if !m.storeMem(memAddr, m.Regs[d.rs2]) {
				if (m.tainted(d.rs1) || m.wrongPath) && m.Cfg.Recovery != RecoverNone {
					if m.recoverFault() {
						m.Stats.Cycles = m.pipe.account(d)
						continue
					}
					if m.livelocked {
						return ErrLivelock
					}
				}
				return m.storeErr(memAddr)
			}
			m.Stats.Stores++
			if cache != nil {
				if cache.access(memAddr) {
					m.Stats.CacheHits++
				} else {
					m.Stats.CacheMisses++
					// Write-allocate fill: a short stall rather than a
					// dependent-latency extension (nothing waits on a store).
					m.pipe.stall(missPenalty / 3)
				}
			}
		case dJump:
			nextPC = int(d.imm)
		case dCondBr:
			cond := m.Regs[d.rs1] == 0
			if d.condNeg {
				cond = !cond
			}
			// Scheduled control-flow error: the branch resolves the wrong way
			// and execution continues speculatively down the wrong path.
			if hot && len(m.flipAt) > 0 && seq >= m.flipAt[0] && !m.wrongPath {
				cond = !cond
				m.wrongPath = true
				m.noteFault()
				m.flipAt = m.flipAt[1:]
			}
			if cond {
				nextPC = int(d.imm)
			}
			if cond != d.predTaken {
				m.Stats.Mispredicts++
				m.pipe.mispredict()
			}
		case dCall:
			m.Regs[isa.LR] = uint64(pc + 1)
			if hot {
				m.golden[isa.LR] = uint64(pc + 1)
			}
			nextPC = int(d.imm)
			if tracer != nil {
				tracer.Call()
			}
		case dRet:
			nextPC = int(m.Regs[isa.LR])
			if tracer != nil {
				tracer.Ret()
			}
		case dHalt:
			// A wrong path must not terminate the machine.
			if m.wrongPath && m.Cfg.Recovery != RecoverNone {
				if m.recoverFault() {
					m.Stats.Cycles = m.pipe.account(d)
					continue
				}
				if m.livelocked {
					return ErrLivelock
				}
			}
			m.halted = true
			if m.Cfg.TrackPaths && m.pathLen > 0 {
				m.Stats.PathLens[m.pathLen]++
			}
			m.Stats.Cycles = m.pipe.account(d)
			if tracer != nil {
				tracer.Instr(m.P.Instrs[pc], memAddr, m.Regs[isa.SP])
			}
			m.PC = nextPC
			return nil
		case dMark:
			m.Stats.Marks++
			reentry := false
			if hot {
				// Boundary faults armed before this MARK are primed now and
				// fire on the first register write of the new region.
				for len(m.boundaryAt) > 0 && seq >= m.boundaryAt[0].step {
					m.primed = append(m.primed, m.boundaryAt[0].mask)
					m.boundaryAt = m.boundaryAt[1:]
				}
				// Control-flow verification at the boundary (§2.3): a wrong-path
				// execution is detected here, before any of its stores commit.
				if m.wrongPath && m.Cfg.Recovery != RecoverNone {
					if m.recoverFault() {
						m.Stats.Cycles = m.pipe.account(d)
						continue
					}
					if m.livelocked {
						return ErrLivelock
					}
				}
				// Outstanding value divergence must also be resolved before the
				// region's stores commit — except on the re-entry a recovery just
				// jumped to, where stale (non-input) registers are expected until
				// the re-execution rewrites them.
				if m.justRecovered {
					m.justRecovered = false
					reentry = true
				} else if m.anyTaint() && m.Cfg.Recovery != RecoverNone {
					if m.boundaryRecoverOrReconcile() {
						m.Stats.Cycles = m.pipe.account(d)
						continue
					}
					if m.livelocked {
						return ErrLivelock
					}
				}
			}
			m.lastRecoverPC = -1
			m.consecBoundary = 0
			m.commitRegion()
			// Only a boundary the re-execution was NOT restarted at counts as
			// forward progress for the bounded-retry watchdog: the re-entry
			// MARK a recovery jumps to re-opens the same region.
			if !reentry {
				m.retryPC = -1
				m.retryCount = 0
			}
		case dCheck:
			// DMR check: the redundant copy disagrees iff the value diverges
			// from the golden mirror.
			if m.tainted(d.rs1) {
				if !m.recoverFault() {
					return m.detectErr()
				}
				m.Stats.Cycles = m.pipe.account(d)
				continue
			}
		case dMaj:
			// TMR majority vote: the two clean copies outvote the corrupt
			// one, restoring the correct value in place.
			if m.tainted(d.rd) {
				m.Stats.Detections++
				m.noteDetect()
				m.Regs[d.rd] = m.golden[d.rd]
			}
		default: // dALU
			v, err := evalALU(d, m.Regs[d.rs1], m.Regs[d.rs2])
			if err != nil {
				// Division by zero on a wrong path is a speculation artifact;
				// a corrupted operand (e.g. a divisor flipped to zero) is a
				// detection, exactly like a corrupted address register.
				if (m.wrongPath || m.readsTainted(&m.P.Instrs[pc])) && m.Cfg.Recovery != RecoverNone {
					if m.recoverFault() {
						m.Stats.Cycles = m.pipe.account(d)
						continue
					}
					if m.livelocked {
						return ErrLivelock
					}
				}
				return err
			}
			m.Regs[d.rd] = v
			if hot {
				gv, gerr := evalALU(d, m.golden[d.rs1], m.golden[d.rs2])
				if gerr != nil {
					return gerr
				}
				m.golden[d.rd] = gv
			}
		}

		// Scheduled fault injection: corrupt the just-written architectural
		// destination (the golden mirror keeps the correct value).
		// Instrumentation (Meta) is outside the fault sphere. Step-scheduled,
		// boundary-primed and recovery-nested faults all land here.
		if hot && d.writesRd && !d.meta {
			var mask uint64
			if len(m.faultAt) > 0 && seq >= m.faultAt[0].step {
				mask ^= m.faultAt[0].mask
				m.faultAt = m.faultAt[1:]
			}
			if len(m.primed) > 0 {
				mask ^= m.primed[0]
				m.primed = m.primed[1:]
			}
			if len(m.nestedAt) > 0 && m.Stats.Recoveries >= m.nestedAt[0].after {
				mask ^= m.nestedAt[0].mask
				m.nestedAt = m.nestedAt[1:]
			}
			if mask != 0 {
				m.Regs[d.rd] ^= mask
				m.noteFault()
			}
		}

		// Checkpoint-and-log: the log pointer advances through rp; when the
		// log fills, a (free) register checkpoint resets it.
		if ckptLog && d.writesRd && d.rd == uint8(isa.RP) {
			m.logPtr = int64(m.Regs[isa.RP])
			if m.logPtr >= m.logEnd {
				if m.anyTaint() {
					if !m.boundaryRecoverOrReconcile() {
						return m.detectErr()
					}
					m.Stats.Cycles = m.pipe.account(d)
					continue
				}
				m.lastRecoverPC = -1
				m.consecBoundary = 0
				m.PC = nextPC
				m.takeCheckpoint()
				m.Stats.Cycles = m.pipe.account(d)
				if tracer != nil {
					tracer.Instr(m.P.Instrs[pc], memAddr, m.Regs[isa.SP])
				}
				continue
			}
		}

		m.Stats.Cycles = m.pipe.account(d)
		if tracer != nil {
			tracer.Instr(m.P.Instrs[pc], memAddr, m.Regs[isa.SP])
		}
		m.PC = nextPC
	}
	return nil
}

// boundaryRecoverOrReconcile handles divergence found at a region
// boundary or checkpoint. Repeated recoveries at the same point mean the
// remaining divergence is in registers the region never rewrites — dead
// values the program can no longer read before a redefinition — so the
// mirror is reconciled and execution proceeds. Returns true if a recovery
// (re-execution) was initiated.
func (m *Machine) boundaryRecoverOrReconcile() bool {
	if m.lastRecoverPC == m.PC {
		m.consecBoundary++
	} else {
		m.lastRecoverPC = m.PC
		m.consecBoundary = 0
	}
	if m.consecBoundary >= 2 {
		m.Stats.Reconciles++
		m.reconcile()
		m.lastRecoverPC = -1
		m.consecBoundary = 0
		return false
	}
	return m.recoverFault()
}

// readsTainted reports whether a register that in reads holds a
// corrupted value.
func (m *Machine) readsTainted(in *isa.Instr) bool {
	srcs, n := in.Reads()
	for _, r := range srcs[:n] {
		if m.tainted(uint8(r)) {
			return true
		}
	}
	return false
}

// evalALU computes a register-writing ALU operation from a predecoded
// record and the already-fetched operand values (architectural or
// golden). Value-form operands keep the function closure-free: the same
// code path serves both register files.
func evalALU(d *decoded, a, b uint64) (uint64, error) {
	switch d.op {
	case isa.MOVI, isa.FMOVI:
		return d.cval, nil
	case isa.MOV, isa.FMOV:
		return a, nil
	case isa.ITOF:
		return math.Float64bits(float64(int64(a))), nil
	case isa.FTOI:
		return uint64(int64(math.Float64frombits(a))), nil
	case isa.ADD:
		return uint64(int64(a) + int64(b)), nil
	case isa.SUB:
		return uint64(int64(a) - int64(b)), nil
	case isa.MUL:
		return uint64(int64(a) * int64(b)), nil
	case isa.DIV:
		if int64(b) == 0 {
			return 0, errDivZero
		}
		return uint64(int64(a) / int64(b)), nil
	case isa.REM:
		if int64(b) == 0 {
			return 0, errRemZero
		}
		return uint64(int64(a) % int64(b)), nil
	case isa.AND:
		return a & b, nil
	case isa.ORR:
		return a | b, nil
	case isa.EOR:
		return a ^ b, nil
	case isa.LSL:
		return uint64(int64(a) << (b & 63)), nil
	case isa.ASR:
		return uint64(int64(a) >> (b & 63)), nil
	case isa.ADDI:
		return uint64(int64(a) + d.imm), nil
	case isa.NEG:
		return uint64(-int64(a)), nil
	case isa.MVN:
		return ^a, nil
	case isa.SEQ:
		return b2u(int64(a) == int64(b)), nil
	case isa.SNE:
		return b2u(int64(a) != int64(b)), nil
	case isa.SLT:
		return b2u(int64(a) < int64(b)), nil
	case isa.SLE:
		return b2u(int64(a) <= int64(b)), nil
	case isa.SGT:
		return b2u(int64(a) > int64(b)), nil
	case isa.SGE:
		return b2u(int64(a) >= int64(b)), nil
	case isa.FADD:
		return math.Float64bits(f64(a) + f64(b)), nil
	case isa.FSUB:
		return math.Float64bits(f64(a) - f64(b)), nil
	case isa.FMUL:
		return math.Float64bits(f64(a) * f64(b)), nil
	case isa.FDIV:
		return math.Float64bits(f64(a) / f64(b)), nil
	case isa.FNEG:
		return math.Float64bits(-f64(a)), nil
	case isa.FSEQ:
		return b2u(f64(a) == f64(b)), nil
	case isa.FSNE:
		return b2u(f64(a) != f64(b)), nil
	case isa.FSLT:
		return b2u(f64(a) < f64(b)), nil
	case isa.FSLE:
		return b2u(f64(a) <= f64(b)), nil
	case isa.FSGT:
		return b2u(f64(a) > f64(b)), nil
	case isa.FSGE:
		return b2u(f64(a) >= f64(b)), nil
	}
	return 0, fmt.Errorf("machine: unknown op %v", d.op)
}

func f64(v uint64) float64 { return math.Float64frombits(v) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
