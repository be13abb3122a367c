// Package fixture exercises every idemlint rule: each function is
// either a violation (name prefixed Bad) or a clean pattern (Good).
package fixture

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// BadAppend leaks map order into the returned slice.
func BadAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// GoodAppendSorted restores the order before anyone consumes it.
func GoodAppendSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GoodAppendSlicesSorted restores the order with the slices package.
func GoodAppendSlicesSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, strings.Compare)
	return out
}

// BadAppendSlicesNoSort calls into slices after the loop, but nothing
// there sorts.
func BadAppendSlicesNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return slices.Clip(keys)
}

// GoodAnnotated asserts the caller sorts; the annotation suppresses.
func GoodAnnotated(m map[string]int) []string {
	var out []string
	//idemlint:ordered — caller sorts before emitting
	for k := range m {
		out = append(out, k)
	}
	return out
}

// BadBuilder serializes map order into a string.
func BadBuilder(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		b.WriteString(fmt.Sprintf("%s=%d;", k, v))
	}
	return b.String()
}

// BadPrint emits map order straight to stdout.
func BadPrint(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}

// BadConcat builds a string with +=.
func BadConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

// GoodMapWrite writes an unordered sink; no order can leak.
func GoodMapWrite(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// GoodLocalAppend appends to a loop-local slice consumed per
// iteration; nothing outlives one key.
func GoodLocalAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// GoodSum accumulates commutatively.
func GoodSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
