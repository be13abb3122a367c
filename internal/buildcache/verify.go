package buildcache

import (
	"fmt"
	"time"

	"idemproc/internal/codegen"
	"idemproc/internal/verify"
)

// VerifyMode selects whether the cache's output is re-checked by the
// internal/verify translation validator before it is served.
//
//   - VerifyOff: nothing is checked (the default; matches the cache's
//     historical behavior and digests).
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
	VerifyFull
)

func (m VerifyMode) String() string {
	if m == VerifyFull {
		return "full"
	}
	return "off"
}

// ParseVerifyMode parses the flag spelling ("off" or "full"); the empty
// string is off.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "", "off":
		return VerifyOff, nil
	case "full":
		return VerifyFull, nil
	}
	return VerifyOff, fmt.Errorf("buildcache: unknown verify mode %q (want off or full)", s)
}

// SetVerifyMode configures verification for subsequent builds. Set it
// right after construction: entries built before the call keep whatever
// status they were built with.
func (c *Cache) SetVerifyMode(m VerifyMode) { c.verifyMode = m }

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
