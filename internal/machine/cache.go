package machine

// The L1 geometry resembles a 32 KB 2-way L1 with 4-word (32-byte)
// lines: 512 sets × 2 ways × 4 words × 8 bytes, and a miss adds
// missPenalty cycles. Sets and line words are powers of two, so a shift
// and a mask replace the division by the line size and the modulo by
// the set count.
const (
	cacheSets      = 512
	cacheWays      = 2
	cacheLineShift = 2 // log2 of the 4 words in a line
	missPenalty    = 12
)

// dcache models a small set-associative L1 data cache with LRU
// replacement. It affects only timing (the simulator's memory is always
// functionally coherent): hits cost the base load latency, misses add a
// fill penalty. Store misses allocate (write-allocate) and stores hitting
// the buffer or cache are cheap, approximating a write-back L1 like the
// paper's gem5 ARM configuration.
type dcache struct {
	// tags/lru are flat sets×ways arrays indexed set*ways+way.
	tags, lru [cacheSets * cacheWays]int64
	clock     int64
}

// CacheConfig selects the L1 data cache timing model. The zero value
// disables it (flat 2-cycle memory, the pre-cache behaviour).
type CacheConfig struct {
	enabled bool
}

// DefaultCache enables the L1 model: the gem5-like configuration the
// experiment drivers use.
func DefaultCache() CacheConfig {
	return CacheConfig{enabled: true}
}

// newDCache builds an empty cache model.
func newDCache() *dcache {
	c := &dcache{}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// access touches addr, which the machine has already bounds-checked to
// be positive; reports whether it hit.
func (c *dcache) access(addr int64) bool {
	line := addr >> cacheLineShift
	base := int(line&(cacheSets-1)) * cacheWays
	c.clock++
	for w := base; w < base+cacheWays; w++ {
		if c.tags[w] == line {
			c.lru[w] = c.clock
			return true
		}
	}
	// Miss: replace the LRU way.
	victim := base
	for w := base + 1; w < base+cacheWays; w++ {
		if c.lru[w] < c.lru[victim] {
			victim = w
		}
	}
	c.tags[victim] = line
	c.lru[victim] = c.clock
	return false
}
