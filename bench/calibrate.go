package main

import (
	"fmt"
	"go/format"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The 2-core host this benchmark was built on shares its physical cores
// with other machines, and its speed drifts by up to 2× over seconds to
// minutes: the same compile round can take 170 ms or 260 ms. Integer and
// pointer-chasing loops do not feel it; branchy, allocating code like a
// compiler or an interpreter does. So a run measures the host's speed
// before and after each slice of its timed phase, with a fixed
// calibration job made of that kind of code, and reports times scaled to
// the speed calibrationSeconds stands for (observation.speed). The job
// is this file's own code and the Go standard library's formatter, which
// no change to the program can touch. Over 14-second blocks of compile
// rounds and Fig. 8 runs, this scaling cut the spread (standard
// deviation over mean) from 14% to 5% (compile) and from 15% to 7%
// (Fig. 8).

// calibrationSeconds is how long the calibration job takes on the
// reference host at a typical speed, so scaled times read as that
// host's times.
const calibrationSeconds = 0.19

// hostSpeed calibrates, except in the test-sized runs, which take the
// reference speed.
func (c config) hostSpeed() float64 {
	if c.short {
		return 1
	}
	return calibrate()
}

// calibrate runs the calibration job on nproc goroutines and returns the
// host's speed: calibrationSeconds over the job's wall time. It collects
// garbage first, so the job starts from the same heap in every slice.
func calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < nproc(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calibrationFormats; i++ {
				if _, err := format.Source(calibrationSource); err != nil {
					panic(err) // the generated source always parses
				}
			}
			vmSink.Add(vmRun(calibrationSteps))
		}()
	}
	wg.Wait()
	return calibrationSeconds / time.Since(t0).Seconds()
}

// The job's two halves take about the same time: formatting a generated
// Go file (parser and printer: branchy, allocating code like the
// compiler's) and running a small interpreter loop (like the simulator's
// dispatch).
const (
	calibrationFormats = 30
	calibrationSteps   = 2_500_000
)

// calibrationSource is a generated Go file of about a thousand lines.
var calibrationSource = func() []byte {
	var b strings.Builder
	b.WriteString("package calib\n\nimport \"fmt\"\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `
type T%[1]d struct {
	A, B int
	S    string
	M    map[string]int
}

// F%[1]d folds xs into a sum, recording some elements in t.
func F%[1]d(xs []int, t *T%[1]d) (int, error) {
	sum := 0
	for i, x := range xs {
		switch {
		case x%%%[2]d == 0:
			sum += x * i
		case x > %[3]d:
			sum -= x / (i + 1)
		default:
			if t != nil && t.M != nil {
				t.M[fmt.Sprint(i)] = x
			}
		}
	}
	if sum < 0 {
		return 0, fmt.Errorf("F%[1]d: negative sum %%d", sum)
	}
	return sum + t.A*t.B + len(t.S), nil
}
`, i, 2+i%5, 10*i)
	}
	return []byte(b.String())
}()

// vmInstr is one instruction of the calibration interpreter.
type vmInstr struct {
	op      uint8
	a, b, c uint8
	imm     int64
}

// vmProg hashes a counter through a small table, with a data-dependent
// branch, until register 8's bound.
var vmProg = []vmInstr{
	{op: 0, a: 1, imm: 0},          // r1 = 0
	{op: 0, a: 2, imm: 12345},      // r2 = seed
	{op: 0, a: 5, imm: 0},          // r5 = 0
	{op: 1, a: 3, b: 2, imm: 13},   // loop: r3 = r2 << 13
	{op: 2, a: 2, b: 2, c: 3},      // r2 ^= r3
	{op: 3, a: 3, b: 2, imm: 7},    // r3 = r2 >> 7
	{op: 2, a: 2, b: 2, c: 3},      // r2 ^= r3
	{op: 4, a: 4, b: 2, imm: 1023}, // r4 = r2 & 1023
	{op: 5, a: 6, b: 4},            // r6 = mem[r4]
	{op: 6, a: 6, b: 6, c: 2},      // r6 += r2
	{op: 7, a: 4, b: 6},            // mem[r4] = r6
	{op: 4, a: 7, b: 2, imm: 3},    // r7 = r2 & 3
	{op: 8, a: 7, imm: 14},         // if r7 == 0 skip the next
	{op: 6, a: 5, b: 5, c: 6},      // r5 += r6
	{op: 9, a: 1, imm: 1},          // r1++
	{op: 10, a: 1, imm: 3},         // if r1 < r8 goto loop
	{op: 11},                       // halt
}

// vmSink keeps the interpreter's result alive.
var vmSink atomic.Int64

// vmRun runs vmProg for n iterations and returns its checksum.
func vmRun(n int64) int64 {
	var r [16]int64
	var mem [1024]int64
	r[8] = n
	for pc := 0; ; {
		in := &vmProg[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] = in.imm
		case 1:
			r[in.a] = r[in.b] << uint(in.imm)
		case 2:
			r[in.a] = r[in.b] ^ r[in.c]
		case 3:
			r[in.a] = int64(uint64(r[in.b]) >> uint(in.imm))
		case 4:
			r[in.a] = r[in.b] & in.imm
		case 5:
			r[in.a] = mem[r[in.b]]
		case 6:
			r[in.a] = r[in.b] + r[in.c]
		case 7:
			mem[r[in.a]] = r[in.b]
		case 8:
			if r[in.a] == 0 {
				pc = int(in.imm)
			}
		case 9:
			r[in.a] += in.imm
		case 10:
			if r[in.a] < r[8] {
				pc = int(in.imm)
			}
		case 11:
			return r[5]
		}
	}
}
