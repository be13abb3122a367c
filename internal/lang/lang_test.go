package lang

import (
	"testing"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/ir"
	"idemproc/internal/machine"
	"idemproc/internal/ssa"
)

// run lowers src, SSA-converts, and interprets fn(args).
func run(t *testing.T, src, fn string, args ...ir.Word) ir.Word {
	t.Helper()
	m, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, f := range m.Funcs {
		ssa.PromoteAllocas(f)
		ssa.Build(f)
	}
	in := ir.NewInterp(m, 8192)
	got, err := in.Run(fn, args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

func TestArithmeticAndLocals(t *testing.T) {
	src := `
func calc(int a, int b) int {
    int x = a * 3 + b / 2;
    int y = (a - b) % 7;
    x = x + y * 2;
    return x;
}
`
	// a=10,b=4: x=30+2=32; y=6%7=6; x=32+12=44
	if got := run(t, src, "calc", 10, 4); got != 44 {
		t.Fatalf("calc(10,4) = %d, want 44", int64(got))
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func collatz(int n) int {
    int steps = 0;
    while (n > 1) {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = 3 * n + 1;
        }
        steps = steps + 1;
    }
    return steps;
}
`
	if got := run(t, src, "collatz", 27); got != 111 {
		t.Fatalf("collatz(27) = %d, want 111", got)
	}
}

func TestForBreakContinue(t *testing.T) {
	src := `
func f(int n) int {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { continue; }
        if (i > 10) { break; }
        acc = acc + i;
    }
    return acc;
}
`
	// i in 1..10 excluding multiples of 3: 1+2+4+5+7+8+10 = 37
	if got := run(t, src, "f", 100); got != 37 {
		t.Fatalf("f(100) = %d, want 37", got)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	src := `
global int hist[8];
global int total = 100;

func tally(int x) void {
    hist[x % 8] = hist[x % 8] + 1;
    total = total + 1;
}

func main(int n) int {
    for (int i = 0; i < n; i = i + 1) {
        tally(i * i);
    }
    int sum = 0;
    for (int i = 0; i < 8; i = i + 1) {
        sum = sum + hist[i];
    }
    return sum * 1000 + total;
}
`
	if got := run(t, src, "main", 20); got != 20*1000+120 {
		t.Fatalf("main(20) = %d, want %d", got, 20*1000+120)
	}
}

func TestLocalArraysAndPointers(t *testing.T) {
	src := `
func sum(int* p, int n) int {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + p[i];
    }
    return acc;
}

func main(int n) int {
    int buf[16];
    for (int i = 0; i < n; i = i + 1) {
        buf[i] = i * i;
    }
    int* q = buf + 2;
    return sum(buf, n) + q[0];
}
`
	// n=5: 0+1+4+9+16=30, q[0]=buf[2]=4 → 34
	if got := run(t, src, "main", 5); got != 34 {
		t.Fatalf("main(5) = %d, want 34", got)
	}
}

func TestFloats(t *testing.T) {
	src := `
global float weights[4] = {0.5, 1.5, 2.5, 3.5};

func dot(int n) float {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + weights[i] * float(i);
    }
    return acc;
}

func main(int n) int {
    float d = dot(n);
    if (d > 10.0) { return int(d * 2.0); }
    return int(d);
}
`
	// dot(4) = 0 + 1.5 + 5 + 10.5 = 17 > 10 → 34
	if got := run(t, src, "main", 4); got != 34 {
		t.Fatalf("main(4) = %d, want 34", got)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
global int calls = 0;

func bump() int {
    calls = calls + 1;
    return 1;
}

func f(int a) int {
    if (a > 0 && bump() > 0) {
        a = a + 10;
    }
    if (a < 0 || bump() > 0) {
        a = a + 100;
    }
    return a * 1000 + calls;
}
`
	// a=1: && evaluates bump (calls=1), a=11; || evaluates bump (calls=2),
	// a=111 → 111*1000+2.
	if got := run(t, src, "f", 1); got != 111002 {
		t.Fatalf("f(1) = %d, want 111002", got)
	}
	// a=-1 (as 2's complement Word): && short-circuits, || short-circuits.
	if got := run(t, src, "f", ir.Word(uint64(1)<<63|^uint64(0)>>1&0)|ir.Word(^uint64(0))); got != ir.Word(^uint64(0))-ir.Word(100)+ir.Word(101)*0+ir.Word(0) {
		// -1: first if false (calls stays 0), second: a<0 true → a=99 →
		// 99*1000+0 = 99000.
		if int64(got) != 99000 {
			t.Fatalf("f(-1) = %d, want 99000", int64(got))
		}
	}
}

func TestRecursionLang(t *testing.T) {
	src := `
func fib(int n) int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
`
	if got := run(t, src, "fib", 15); got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func f( {",
		"func f() int { return x; }",
		"func f() int { int x = g(); return x; }",
		"global int* p;",
		"func f() int { break; }",
		"func f(float x) int { if (x) { } return 0; }",
		"func f() int { 3 = 4; return 0; }",
		"func f() int { return 1 +; }",
		"func f() void { } func f() void { }",
		"func f() float { return 1.2.3; }",
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile accepted %q", src)
		}
	}
}

func TestShadowing(t *testing.T) {
	src := `
func f(int a) int {
    int x = a;
    {
        int x = a * 10;
        a = x;
    }
    return a + x;
}
`
	// inner x = 50, a = 50; return 50 + 5 = 55 for a=5.
	if got := run(t, src, "f", 5); got != 55 {
		t.Fatalf("f(5) = %d, want 55", got)
	}
}

// TestEndToEndMachine compiles an idc program through the full pipeline
// (both conventional and idempotent) and cross-checks against the
// interpreter.
func TestEndToEndMachine(t *testing.T) {
	src := `
global int table[32];

func mix(int x) int {
    x = x ^ (x << 13);
    x = x ^ (x >> 7);
    return x ^ (x << 17);
}

func main(int n) int {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        int h = mix(i + 1);
        if (h < 0) { h = -h; }
        table[h % 32] = table[h % 32] + 1;
        acc = acc + table[h % 32];
    }
    return acc;
}
`
	ref := MustCompile(src)
	for _, f := range ref.Funcs {
		ssa.PromoteAllocas(f)
		ssa.Build(f)
	}
	in := ir.NewInterp(ref, 8192)
	want, err := in.Run("main", 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, idem := range []bool{false, true} {
		m := MustCompile(src)
		p, _, err := codegen.CompileModule(m, "main", 8192, idem, core.DefaultOptions())
		if err != nil {
			t.Fatalf("idem=%v: %v", idem, err)
		}
		mach := machine.New(p, machine.Config{BufferStores: idem})
		got, err := mach.Run(50)
		if err != nil {
			t.Fatalf("idem=%v: %v", idem, err)
		}
		if got != uint64(want) {
			t.Fatalf("idem=%v: machine %d, interp %d", idem, got, want)
		}
	}
}

func TestNestedLoopsBreakContinue(t *testing.T) {
	src := `
func f(int n) int {
    int total = 0;
    for (int i = 0; i < n; i = i + 1) {
        int row = 0;
        for (int j = 0; j < n; j = j + 1) {
            if (j == i) { continue; }
            if (row > 10) { break; }
            row = row + j;
        }
        total = total + row;
    }
    return total;
}
`
	// n=4: i=0: j=1,2,3 → 1,3(>10? no),6... row accumulates 1+2+3 minus j==i.
	// Compute expected in Go:
	expect := func(n int) int {
		total := 0
		for i := 0; i < n; i++ {
			row := 0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if row > 10 {
					break
				}
				row += j
			}
			total += row
		}
		return total
	}
	for _, n := range []int{0, 1, 4, 7} {
		if got := run(t, src, "f", ir.Word(n)); int(got) != expect(n) {
			t.Fatalf("f(%d) = %d, want %d", n, got, expect(n))
		}
	}
}

func TestLocalArrayPassedToCallee(t *testing.T) {
	src := `
func fill(int* p, int n, int seed) void {
    for (int i = 0; i < n; i = i + 1) {
        p[i] = seed * (i + 1);
    }
}

func sum(int* p, int n) int {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + p[i]; }
    return acc;
}

func main(int n) int {
    int a[8];
    int b[8];
    fill(a, n, 2);
    fill(b, n, 10);
    return sum(a, n) * 1000 + sum(b, n);
}
`
	// n=3: a = 2,4,6 → 12; b = 10,20,30 → 60 → 12060
	if got := run(t, src, "main", 3); got != 12060 {
		t.Fatalf("main(3) = %d, want 12060", got)
	}
}

func TestWhileWithComplexCond(t *testing.T) {
	src := `
func f(int a, int b) int {
    int steps = 0;
    while (a > 0 && b > 0) {
        if (a > b) { a = a - b; } else { b = b - a; }
        steps = steps + 1;
    }
    return a + b + steps * 100;
}
`
	// gcd-like: f(12, 8): 12,8→4,8→4,4→4,0 stops: a+b=4, steps=3 → 304
	if got := run(t, src, "f", 12, 8); got != 304 {
		t.Fatalf("f(12,8) = %d, want 304", got)
	}
}

func TestNegativeLiteralsAndUnary(t *testing.T) {
	src := `
global int bias = -5;
global float scale[2] = {-1.5, 2.0};

func f(int x) int {
    int y = -x + bias;
    if (!(y > 0)) { y = -y; }
    float z = scale[0] * float(y);
    return int(z) + bias;
}
`
	// x=3: y=-8 → !(y>0) → y=8; z=-12 → -12 + -5 = -17
	if got := run(t, src, "f", 3); int64(got) != -17 {
		t.Fatalf("f(3) = %d, want -17", int64(got))
	}
}
