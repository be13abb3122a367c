package codegen

// Binary artifact codec for Program + BuildStats. The encoding is the
// persistence format of the buildcache disk tier, so it must be
// deterministic (byte-identical for equal inputs: maps are written in
// sorted key order) and strict on decode (any malformed, truncated or
// trailing byte is an error — the disk tier treats errors as cache
// misses and recompiles). CodecVersion is bumped on any layout change;
// old artifacts then simply miss.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"idemproc/internal/ir"
	"idemproc/internal/isa"
)

// CodecVersion identifies the artifact payload layout. Bump it whenever
// the encoding below changes shape; serialize_test.go pins the field
// counts of every encoded struct so that adding a field without
// extending the codec (and bumping this) fails tests.
const CodecVersion = 1

// EncodeProgram serializes a linked Program and its BuildStats into the
// deterministic binary artifact payload. st may be nil (encoded as an
// empty BuildStats).
func EncodeProgram(p *Program, st *BuildStats) []byte {
	e := &encoder{}
	if st == nil {
		st = &BuildStats{}
	}
	e.program(p)
	e.buildStats(st)
	return e.buf
}

// DecodeProgram parses an artifact payload produced by EncodeProgram.
// It is strict: short input, malformed varints, and trailing bytes all
// return errors (never panic), so corrupt artifacts degrade to cache
// misses.
func DecodeProgram(data []byte) (p *Program, st *BuildStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, st, err = nil, nil, fmt.Errorf("decode artifact: %v", r)
		}
	}()
	d := &decoder{buf: data}
	p = d.program()
	st = d.buildStats()
	if len(d.buf) != d.off {
		return nil, nil, fmt.Errorf("decode artifact: %d trailing bytes", len(d.buf)-d.off)
	}
	return p, st, nil
}

// --- encoder ---

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) int(v int)        { e.varint(int64(v)) }
func (e *encoder) byte(b uint8)     { e.buf = append(e.buf, b) }
func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *encoder) f64(f float64) { e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(f)) }
func (e *encoder) str(s string)  { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }

// slice writes a slice length prefix that preserves nil-ness: 0 encodes
// a nil slice, n+1 encodes a (possibly empty) slice of length n. This
// keeps decode(encode(x)) DeepEqual to x even for empty-but-non-nil
// slices (workload modules declare some zero-init globals that way).
func (e *encoder) slice(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

func (e *encoder) program(p *Program) {
	e.slice(len(p.Instrs), p.Instrs == nil)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		e.byte(uint8(in.Op))
		e.byte(uint8(in.Rd))
		e.byte(uint8(in.Rs1))
		e.byte(uint8(in.Rs2))
		e.varint(in.Imm)
		e.f64(in.FImm)
		e.str(in.Sym)
		e.byte(in.Shadow)
		e.bool(in.Meta)
	}
	e.int(p.Entry)
	e.str(p.Main)
	e.uvarint(uint64(len(p.FuncEntry)))
	for _, k := range sortedKeys(p.FuncEntry) {
		e.str(k)
		e.int(p.FuncEntry[k])
	}
	// FuncOf is one string per instruction but with long constant runs
	// (all of a function's instructions are contiguous): run-length
	// encode it.
	e.slice(len(p.FuncOf), p.FuncOf == nil)
	for i := 0; i < len(p.FuncOf); {
		j := i
		for j < len(p.FuncOf) && p.FuncOf[j] == p.FuncOf[i] {
			j++
		}
		e.uvarint(uint64(j - i))
		e.str(p.FuncOf[i])
		i = j
	}
	e.uvarint(uint64(len(p.GlobalBase)))
	for _, k := range sortedKeys(p.GlobalBase) {
		e.str(k)
		e.varint(p.GlobalBase[k])
	}
	e.varint(p.GlobalEnd)
	e.slice(len(p.Globals), p.Globals == nil)
	for _, g := range p.Globals {
		e.str(g.Name)
		e.varint(g.Size)
		e.slice(len(g.Init), g.Init == nil)
		for _, v := range g.Init {
			e.varint(v)
		}
	}
	e.int(p.MemWords)
	e.int(p.Marks)
}

func (e *encoder) buildStats(st *BuildStats) {
	e.uvarint(uint64(len(st.Construction)))
	names := make([]string, 0, len(st.Construction))
	for k := range st.Construction {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e.str(k)
		e.funcConstruction(st.Construction[k])
	}
	e.int(st.Marks)
	e.int(st.SpillLoads)
	e.int(st.SpillStores)
	e.int(st.StaticInstrs)
	e.int(st.FrameWords)
}

func (e *encoder) funcConstruction(fc *FuncConstruction) {
	s := &fc.Stats
	e.int(s.PromotedAllocas)
	e.int(s.ForwardedLoads)
	e.int(s.AntidepsCut)
	e.int(s.CutsFromMulticut)
	e.int(s.CutsFromCalls)
	e.int(s.CutsFromSelfDep)
	e.int(s.CutsFromRetSplit)
	e.int(s.LoopsUnrolled)
	e.int(s.Instructions)
	e.int(s.RegionCount)
	e.f64(s.AvgRegionSize)
	e.int(s.LargestRegionSize)
	e.int(fc.Cuts)
	e.slice(len(fc.Antideps), fc.Antideps == nil)
	for _, d := range fc.Antideps {
		e.str(d.Read)
		e.str(d.Write)
		e.bool(d.MustAlias)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// --- decoder ---

// decoder panics on malformed input; DecodeProgram converts the panic to
// an error. maxCount bounds every map and string count, and slice bounds
// each slice length by what the rest of the input can hold, so a corrupt
// header cannot trigger a giant allocation before the bound check fails.
type decoder struct {
	buf []byte
	off int
}

const maxCount = 1 << 28

func (d *decoder) fail(what string) {
	panic(fmt.Sprintf("%s at offset %d", what, d.off))
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
	}
	d.off += n
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) count() int {
	v := d.uvarint()
	if v > maxCount {
		d.fail("count out of range")
	}
	return int(v)
}

// slice reads a nil-preserving length prefix (see encoder.slice) and
// fails unless the length is at most limit.
func (d *decoder) slice(limit int) (n int, isNil bool) {
	v := d.uvarint()
	if v == 0 {
		return 0, true
	}
	v--
	if v > uint64(limit) {
		d.fail("count out of range")
	}
	return int(v), false
}

// left is the number of unread input bytes: an upper bound on the length
// of any slice whose elements each take at least one byte.
func (d *decoder) left() int { return len(d.buf) - d.off }

func (d *decoder) byte() uint8 {
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

func (d *decoder) f64() float64 {
	if d.off+8 > len(d.buf) {
		d.fail("truncated float")
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

func (d *decoder) str() string {
	n := d.count()
	if d.off+n > len(d.buf) {
		d.fail("truncated string")
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) program() *Program {
	p := &Program{}
	if n, isNil := d.slice(d.left()); !isNil {
		p.Instrs = make([]isa.Instr, n)
		for i := range p.Instrs {
			in := &p.Instrs[i]
			in.Op = isa.Op(d.byte())
			in.Rd = isa.Reg(d.byte())
			in.Rs1 = isa.Reg(d.byte())
			in.Rs2 = isa.Reg(d.byte())
			in.Imm = d.varint()
			in.FImm = d.f64()
			in.Sym = d.str()
			in.Shadow = d.byte()
			in.Meta = d.bool()
		}
	}
	p.Entry = d.int()
	p.Main = d.str()
	p.FuncEntry = make(map[string]int)
	for i, n := 0, d.count(); i < n; i++ {
		k := d.str()
		p.FuncEntry[k] = d.int()
	}
	// FuncOf is run-length encoded, but it never outnumbers the
	// instructions it names.
	if n, isNil := d.slice(len(p.Instrs)); !isNil {
		p.FuncOf = make([]string, 0, n)
		for len(p.FuncOf) < n {
			run := d.count()
			if run == 0 || len(p.FuncOf)+run > n {
				d.fail("bad run length")
			}
			s := d.str()
			for j := 0; j < run; j++ {
				p.FuncOf = append(p.FuncOf, s)
			}
		}
	}
	p.GlobalBase = make(map[string]int64)
	for i, n := 0, d.count(); i < n; i++ {
		k := d.str()
		p.GlobalBase[k] = d.varint()
	}
	p.GlobalEnd = d.varint()
	if n, isNil := d.slice(d.left()); !isNil {
		p.Globals = make([]*ir.GlobalVar, n)
		for i := range p.Globals {
			g := &ir.GlobalVar{Name: d.str(), Size: d.varint()}
			if m, mNil := d.slice(d.left()); !mNil {
				g.Init = make([]int64, m)
				for j := range g.Init {
					g.Init[j] = d.varint()
				}
			}
			p.Globals[i] = g
		}
	}
	p.MemWords = d.int()
	p.Marks = d.int()
	return p
}

func (d *decoder) buildStats() *BuildStats {
	st := &BuildStats{Construction: map[string]*FuncConstruction{}}
	for i, n := 0, d.count(); i < n; i++ {
		k := d.str()
		st.Construction[k] = d.funcConstruction()
	}
	st.Marks = d.int()
	st.SpillLoads = d.int()
	st.SpillStores = d.int()
	st.StaticInstrs = d.int()
	st.FrameWords = d.int()
	return st
}

func (d *decoder) funcConstruction() *FuncConstruction {
	fc := &FuncConstruction{}
	s := &fc.Stats
	s.PromotedAllocas = d.int()
	s.ForwardedLoads = d.int()
	s.AntidepsCut = d.int()
	s.CutsFromMulticut = d.int()
	s.CutsFromCalls = d.int()
	s.CutsFromSelfDep = d.int()
	s.CutsFromRetSplit = d.int()
	s.LoopsUnrolled = d.int()
	s.Instructions = d.int()
	s.RegionCount = d.int()
	s.AvgRegionSize = d.f64()
	s.LargestRegionSize = d.int()
	fc.Cuts = d.int()
	if n, isNil := d.slice(d.left()); !isNil {
		fc.Antideps = make([]AntidepInfo, n)
		for i := range fc.Antideps {
			fc.Antideps[i] = AntidepInfo{Read: d.str(), Write: d.str(), MustAlias: d.bool()}
		}
	}
	return fc
}
