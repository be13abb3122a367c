package machine

import (
	"fmt"
	"math/bits"
)

// dcache models a small set-associative L1 data cache with LRU
// replacement. It affects only timing (the simulator's memory is always
// functionally coherent): hits cost the base load latency, misses add a
// fill penalty. Store misses allocate (write-allocate) and stores hitting
// the buffer or cache are cheap, approximating a write-back L1 like the
// paper's gem5 ARM configuration.
type dcache struct {
	// tags/lru are flat sets×ways arrays indexed set*ways+way — two
	// allocations total instead of 2+2×sets, and no double indirection
	// on the access path.
	tags  []int64
	lru   []int64
	clock int64
	ways  int
	// lineShift and setMask replace the division by the line size and
	// the modulo by the set count: both are powers of two.
	lineShift uint
	setMask   int64
}

// CacheConfig sizes the L1 model. The zero value disables it (flat
// 2-cycle memory, the pre-cache behaviour).
type CacheConfig struct {
	// Sets and Ways size the cache (capacity = Sets*Ways*LineWords
	// words). LineWords is the words-per-line granularity. Sets and
	// LineWords must be powers of two.
	Sets, Ways, LineWords int
	// MissPenalty is the extra cycles a miss costs.
	MissPenalty int
}

// DefaultCache resembles a 32 KB 2-way L1 with 4-word (32-byte) lines:
// 512 sets × 2 ways × 4 words × 8 bytes.
func DefaultCache() CacheConfig {
	return CacheConfig{Sets: 512, Ways: 2, LineWords: 4, MissPenalty: 12}
}

// newDCache builds the cache model. It panics when Sets or LineWords is
// not a power of two: only code sets them, never request input.
func newDCache(cfg CacheConfig) *dcache {
	if !powerOfTwo(cfg.Sets) || !powerOfTwo(cfg.LineWords) {
		panic(fmt.Sprintf("machine: cache sets (%d) and line words (%d) must be powers of two", cfg.Sets, cfg.LineWords))
	}
	c := &dcache{
		ways:      cfg.Ways,
		tags:      make([]int64, cfg.Sets*cfg.Ways),
		lru:       make([]int64, cfg.Sets*cfg.Ways),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
		setMask:   int64(cfg.Sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// access touches addr, which the machine has already bounds-checked to
// be positive; reports whether it hit.
func (c *dcache) access(addr int64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	c.clock++
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] == line {
			c.lru[w] = c.clock
			return true
		}
	}
	// Miss: replace the LRU way.
	victim := base
	for w := base + 1; w < base+c.ways; w++ {
		if c.lru[w] < c.lru[victim] {
			victim = w
		}
	}
	c.tags[victim] = line
	c.lru[victim] = c.clock
	return false
}
