package fault

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"idemproc/internal/machine"
)

// ModelKind identifies a fault model. The engine is compositional in the
// FastFlip sense: a campaign draws each run's injection from the set of
// enabled models, and every draw is reproducible from the campaign seed
// and the run index alone.
type ModelKind uint8

const (
	// ModelRegisterBitFlip is the classic single-event upset: one bit of
	// one register-write destination is flipped.
	ModelRegisterBitFlip ModelKind = iota
	// ModelRegisterBurst flips a short run (2–4) of adjacent bits in one
	// destination, modelling multi-bit upsets in a latch array.
	ModelRegisterBurst
	// ModelMemoryWord flips bits of a memory word in place (store buffer
	// or backing memory). Register-level redundancy does not cover it;
	// outcomes are SDCs, crashes or livelocks, never DMR detections.
	ModelMemoryWord
	// ModelControlFlow forces a conditional branch the wrong way (§2.3).
	ModelControlFlow
	// ModelBoundary arms a bit flip that fires on the first register
	// write after the next MARK — corruption at maximal re-execution
	// distance from the region entry's implicit checkpoint.
	ModelBoundary
	// ModelNested injects a primary bit flip and a second flip on the
	// first register write after the first recovery, testing
	// recovery-under-failure.
	ModelNested

	numModels
)

var modelNames = [numModels]string{
	ModelRegisterBitFlip: "reg",
	ModelRegisterBurst:   "burst",
	ModelMemoryWord:      "mem",
	ModelControlFlow:     "cf",
	ModelBoundary:        "boundary",
	ModelNested:          "nested",
}

func (k ModelKind) String() string {
	if int(k) < len(modelNames) {
		return modelNames[k]
	}
	return fmt.Sprintf("model(%d)", uint8(k))
}

// MarshalText renders the model name into JSON (and map keys).
func (k ModelKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a model name.
func (k *ModelKind) UnmarshalText(b []byte) error {
	for i, n := range modelNames {
		if n == string(b) {
			*k = ModelKind(i)
			return nil
		}
	}
	return fmt.Errorf("fault: unknown fault model %q", b)
}

// AllModels lists every fault model kind.
func AllModels() []ModelKind {
	out := make([]ModelKind, numModels)
	for i := range out {
		out[i] = ModelKind(i)
	}
	return out
}

// ParseModels parses a comma-separated model list ("reg,mem,cf"); the
// literal "all" enables every model.
func ParseModels(s string) ([]ModelKind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	if strings.TrimSpace(s) == "all" {
		return AllModels(), nil
	}
	var out []ModelKind
	for _, f := range strings.Split(s, ",") {
		var k ModelKind
		if err := k.UnmarshalText([]byte(strings.TrimSpace(f))); err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Env is the sampling environment a model draws placements from.
type Env struct {
	// Span is the fault-free dynamic instruction count.
	Span int64
	// MemWords is the simulated memory size; GlobalEnd the end of the
	// initialized global segment (memory faults are biased toward it —
	// the live data the program actually reads).
	MemWords  int64
	GlobalEnd int64
}

// Injection is one sampled fault, fully describing how to arm a machine.
// Campaign records carry it in their JSON.
type Injection struct {
	Model ModelKind `json:"model"`
	// Step is the dynamic-instruction placement.
	Step int64 `json:"step"`
	// Mask is the bit-flip mask (register, memory and boundary models).
	Mask uint64 `json:"mask,omitempty"`
	// Addr is the corrupted word for ModelMemoryWord.
	Addr int64 `json:"addr,omitempty"`
	// After and NestedMask describe the recovery-triggered second flip
	// of ModelNested.
	After      int64  `json:"after,omitempty"`
	NestedMask uint64 `json:"nested_mask,omitempty"`
}

// sampleStep places an injection uniformly over the fault-free execution.
func sampleStep(rng *rand.Rand, env Env) int64 {
	if env.Span <= 1 {
		return 1
	}
	return 1 + rng.Int64N(env.Span-1)
}

// sample draws one injection of the given kind from the per-run PRNG.
// Each kind's draws keep a fixed order, so a (seed, run index) pair
// always yields the same injection; calls in a composite literal run left
// to right, so field order is draw order. An unknown kind draws a
// register bit flip.
func sample(kind ModelKind, rng *rand.Rand, env Env) Injection {
	switch kind {
	case ModelRegisterBurst:
		// The width (2–4 adjacent bits) and position come before the step.
		width := 2 + rng.UintN(3)
		pos := rng.UintN(64)
		mask := (uint64(1)<<width - 1) << pos // truncates at bit 63
		return Injection{Model: kind, Step: sampleStep(rng, env), Mask: mask}
	case ModelMemoryWord:
		// The segment coin comes first: half the draws land in the global
		// segment (the data the program actually computes on), the rest
		// anywhere, including stack, undo log and untouched words.
		hi := env.MemWords
		if rng.UintN(2) == 0 && env.GlobalEnd > 2 {
			hi = env.GlobalEnd
		}
		if hi < 2 {
			hi = 2
		}
		return Injection{Model: kind, Step: sampleStep(rng, env), Addr: 1 + rng.Int64N(hi-1), Mask: 1 << rng.UintN(64)}
	case ModelControlFlow:
		return Injection{Model: kind, Step: sampleStep(rng, env)}
	case ModelBoundary:
		return Injection{Model: kind, Step: sampleStep(rng, env), Mask: 1 << rng.UintN(64)}
	case ModelNested:
		return Injection{Model: kind, Step: sampleStep(rng, env), Mask: 1 << rng.UintN(64),
			After: 1, NestedMask: 1 << rng.UintN(64)}
	}
	return Injection{Model: ModelRegisterBitFlip, Step: sampleStep(rng, env), Mask: 1 << rng.UintN(64)}
}

// Arm schedules inj on a fresh machine.
func Arm(m *machine.Machine, inj Injection) {
	switch inj.Model {
	case ModelRegisterBitFlip, ModelRegisterBurst:
		m.InjectFaultMask(inj.Step, inj.Mask)
	case ModelMemoryWord:
		m.InjectMemFault(inj.Step, inj.Addr, inj.Mask)
	case ModelControlFlow:
		m.InjectControlFlowError(inj.Step)
	case ModelBoundary:
		m.InjectBoundaryFault(inj.Step, inj.Mask)
	case ModelNested:
		m.InjectFaultMask(inj.Step, inj.Mask)
		m.InjectNestedFault(inj.After, inj.NestedMask)
	}
}
