package buildcache

import (
	"fmt"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/verify"
)

// VerifyMode selects how much of the cache's output is re-checked by the
// internal/verify translation validator before it is served.
//
//   - VerifyOff: nothing is checked (the default; matches the cache's
//     historical behavior and digests).
//   - VerifySampled: a deterministic 1-in-4 sample of fresh compiles is
//     checked (sampled by key hash, so the same keys are checked on every
//     run), and every disk-tier artifact is checked after decode — the
//     artifact file is the only input the compiler did not just produce.
//   - VerifyFull: every fresh compile and every disk artifact is checked.
//
// A fresh compile that fails verification becomes a memoized build error:
// serving a program the validator rejects would hand out code whose
// recovery semantics are broken. A disk artifact that fails verification
// is never an error — it is pruned and re-booked as a disk miss, exactly
// like a corrupt artifact, and the request falls through to a compile.
type VerifyMode uint8

const (
	VerifyOff VerifyMode = iota
	VerifySampled
	VerifyFull
)

func (m VerifyMode) String() string {
	switch m {
	case VerifySampled:
		return "sampled"
	case VerifyFull:
		return "full"
	}
	return "off"
}

// ParseVerifyMode parses the flag spelling ("off", "sampled", "full");
// the empty string is off.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "", "off":
		return VerifyOff, nil
	case "sampled":
		return VerifySampled, nil
	case "full":
		return VerifyFull, nil
	}
	return VerifyOff, fmt.Errorf("buildcache: unknown verify mode %q (want off, sampled, or full)", s)
}

// SetVerifyMode configures verification for subsequent builds. Set it
// right after construction: entries built before the call keep whatever
// status they were built with.
func (c *Cache) SetVerifyMode(m VerifyMode) { c.verifyMode = m }

// VerifyMode returns the configured mode.
func (c *Cache) VerifyMode() VerifyMode { return c.verifyMode }

// verifySampleDivisor: sampled mode checks 1 in this many fresh compiles.
const verifySampleDivisor = 4

// sampleKey deterministically selects keys for sampled verification
// (FNV-1a over the key fields, so a given workload/options pair is either
// always or never in the sample).
func sampleKey(key Key) bool {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	mix(key.Workload)
	mix(key.Options)
	h ^= uint64(key.MemWords)
	h *= prime64
	return h%verifySampleDivisor == 0
}

// verifyFresh reports whether a fresh compile for key should be checked
// under the current mode.
func (c *Cache) verifyFresh(key Key) bool {
	switch c.verifyMode {
	case VerifyFull:
		return true
	case VerifySampled:
		return sampleKey(key)
	}
	return false
}

// runVerify checks p against the §2.1 criterion, maintaining the checked
// counter and the cost ledger (verifyNanos, exported as
// idemd_verify_nanos_total). It returns nil when there is nothing to
// check: relaxed-alloc builds legitimately violate the register
// constraint, and markless programs carry no recovery contract.
func (c *Cache) runVerify(p *codegen.Program, mo codegen.ModuleOptions) *verify.Report {
	if p == nil || p.Marks == 0 || mo.RelaxedAlloc {
		return nil
	}
	c.verifyChecked.Add(1)
	t0 := time.Now()
	rep := verify.Verify(p)
	c.verifyNanos.Add(time.Since(t0).Nanoseconds())
	if rep.Skipped {
		return nil
	}
	if !rep.OK() {
		c.verifyFailed.Add(1)
	}
	return rep
}
