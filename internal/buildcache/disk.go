package buildcache

// Disk is the cache's write-behind persistence tier: completed compiles
// are serialized (codegen.EncodeProgram) into content-keyed artifact
// files, and later memory misses — including after a process restart —
// are served by decoding the artifact instead of recompiling.
//
// Layout: <dir>/<workload>/<memWords>/<sha256(fingerprint)>.art. The
// workload and memory size are human-readable path components (so an
// operator can see and prune what is cached); the options fingerprint is
// hashed because it is long and contains characters unfit for paths.
//
// Every artifact carries a header — magic, codec version, the full key
// (workload, memWords, verbatim fingerprint), and a sha256 of the
// payload — and the payload itself decodes strictly into a program the
// simulator and the fault transforms can index (checkProgram). A
// mismatch on any of these is a MISS, never an error: a stale
// fingerprint (hash collision or a codec/options change), a truncated
// write, or bit rot all degrade to a recompile, and the invalid file is
// removed so it is not re-validated on every miss. Disk I/O failures
// are likewise swallowed: persistence is an optimization and the cache
// must keep working on a full or read-only disk.
//
// Writes go through a temp file in the same directory followed by an
// atomic rename, so a crash mid-write never leaves a partially-visible
// artifact, and they run on background goroutines (bounded by a
// semaphore) off the singleflight path. Flush waits for them on
// shutdown.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idemproc/internal/codegen"
	"idemproc/internal/isa"
)

// artifactMagic is the 8-byte file signature. The trailing newline makes
// `head -c8` output readable and guards against CRLF translation.
const artifactMagic = "IDEMART\n"

// maxStoreWorkers bounds concurrent background artifact writes.
const maxStoreWorkers = 4

// Disk is the persistence tier of a Cache. Create via NewBoundedDisk.
type Disk struct {
	dir string
	sem chan struct{}
	wg  sync.WaitGroup

	hits, misses, writes, corrupt atomic.Int64
}

func newDisk(dir string) *Disk {
	return &Disk{dir: dir, sem: make(chan struct{}, maxStoreWorkers)}
}

// Dir returns the artifact root directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a cache key to its artifact file.
func (d *Disk) path(key Key) string {
	sum := sha256.Sum256([]byte(key.Options))
	return filepath.Join(d.dir, sanitize(key.Workload), strconv.Itoa(key.MemWords),
		hex.EncodeToString(sum[:])+".art")
}

// sanitize makes a workload name safe as a path component. Workload
// names are already identifier-like; this is defense against synthetic
// names carrying separators.
func sanitize(name string) string {
	if name == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
}

// encodeArtifact frames an encoded payload with the verification header.
func encodeArtifact(key Key, payload []byte) []byte {
	buf := []byte(artifactMagic)
	buf = binary.AppendUvarint(buf, codegen.CodecVersion)
	buf = appendString(buf, key.Workload)
	buf = binary.AppendVarint(buf, int64(key.MemWords))
	buf = appendString(buf, key.Options)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// parseArtifact checks an artifact's framing (magic, codec version,
// header, payload length and checksum) and returns the key it was
// written for and its payload. Any framing problem is an error; load
// also compares the key, Scan needs only the framing.
func parseArtifact(data []byte) (key Key, payload []byte, err error) {
	if !bytes.HasPrefix(data, []byte(artifactMagic)) {
		return key, nil, errors.New("bad magic")
	}
	data = data[len(artifactMagic):]
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, false
		}
		data = data[k:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := uvarint()
		if !ok || uint64(len(data)) < n {
			return "", false
		}
		s := string(data[:n])
		data = data[n:]
		return s, true
	}
	ver, ok := uvarint()
	if !ok {
		return key, nil, errors.New("truncated version")
	}
	if ver != codegen.CodecVersion {
		return key, nil, fmt.Errorf("codec version %d, want %d", ver, codegen.CodecVersion)
	}
	if key.Workload, ok = str(); !ok {
		return key, nil, errors.New("truncated workload")
	}
	mem, k := binary.Varint(data)
	if k <= 0 {
		return key, nil, errors.New("truncated memWords")
	}
	data = data[k:]
	key.MemWords = int(mem)
	if key.Options, ok = str(); !ok {
		return key, nil, errors.New("truncated fingerprint")
	}
	plen, ok := uvarint()
	if !ok {
		return key, nil, errors.New("truncated payload length")
	}
	if len(data) < sha256.Size {
		return key, nil, errors.New("truncated checksum")
	}
	payload = data[sha256.Size:]
	if uint64(len(payload)) != plen {
		return key, nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), plen)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[:sha256.Size]) {
		return key, nil, errors.New("payload checksum mismatch")
	}
	return key, payload, nil
}

// load tries to serve key from disk. ok is false on any failure —
// missing file, stale header, corrupt payload — and the counters
// distinguish the cases: every failed load counts as a miss, and loads
// that found an invalid file additionally count it as corrupt (and
// remove the file so the next miss goes straight to the compiler).
func (d *Disk) load(key Key) (p *codegen.Program, st *codegen.BuildStats, ok bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil, nil, false
	}
	got, payload, err := parseArtifact(data)
	if err == nil && got != key {
		err = errors.New("key mismatch (stale artifact)")
	}
	if err == nil {
		p, st, err = codegen.DecodeProgram(payload)
	}
	if err == nil {
		err = checkProgram(key, p)
	}
	if err != nil {
		d.corrupt.Add(1)
		d.misses.Add(1)
		os.Remove(path)
		return nil, nil, false
	}
	d.hits.Add(1)
	return p, st, true
}

// checkProgram rejects a decoded program whose values would index past
// what they name: DecodeProgram checks only the encoding, and a damaged
// artifact can carry a valid checksum. The machine sizes its memory by
// MemWords and indexes its register file by every register operand;
// the entry, function entries and branch and call targets index Instrs,
// the fault transforms index FuncOf by instruction, and machine reset
// writes each global's initializer at its base.
func checkProgram(key Key, p *codegen.Program) error {
	n := int64(len(p.Instrs))
	inCode := func(pc int64) bool { return pc >= 0 && pc < n }
	switch {
	case p.MemWords != key.MemWords:
		return fmt.Errorf("memWords %d, key says %d", p.MemWords, key.MemWords)
	case !inCode(int64(p.Entry)):
		return fmt.Errorf("entry %d outside %d instructions", p.Entry, n)
	case int64(len(p.FuncOf)) < n:
		return fmt.Errorf("FuncOf names %d of %d instructions", len(p.FuncOf), n)
	}
	for name, e := range p.FuncEntry {
		if !inCode(int64(e)) {
			return fmt.Errorf("function %s entry %d outside %d instructions", name, e, n)
		}
	}
	for pc, in := range p.Instrs {
		if max(in.Rd, in.Rs1, in.Rs2) >= isa.NumRegs {
			return fmt.Errorf("pc %d: register outside the register file", pc)
		}
		switch in.Op {
		case isa.B, isa.CBZ, isa.CBNZ, isa.CALL:
			if !inCode(in.Imm) {
				return fmt.Errorf("pc %d: target %d outside %d instructions", pc, in.Imm, n)
			}
		}
	}
	mem := int64(p.MemWords)
	for _, g := range p.Globals {
		base := p.GlobalBase[g.Name]
		if base < 0 || base > mem || max(g.Size, int64(len(g.Init))) > mem-base {
			return fmt.Errorf("global %s outside %d words of memory", g.Name, mem)
		}
	}
	return nil
}

// reject prunes an artifact that decoded cleanly but failed semantic
// verification, and re-books the lookup as a miss: the artifact did not
// serve the request, and the next request for the key goes straight to
// the compiler (whose output overwrites the pruned file). The caller
// owns the rejected-artifact accounting.
func (d *Disk) reject(key Key) {
	d.hits.Add(-1)
	d.misses.Add(1)
	os.Remove(d.path(key))
}

// storeAsync persists a completed compile in the background. Failures
// are silent (persistence is best-effort); successes count in writes.
func (d *Disk) storeAsync(key Key, p *codegen.Program, st *codegen.BuildStats) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
		if d.store(key, p, st) == nil {
			d.writes.Add(1)
		}
	}()
}

// store writes the artifact for key atomically (temp file + rename in
// the same directory).
func (d *Disk) store(key Key, p *codegen.Program, st *codegen.BuildStats) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data := encodeArtifact(key, codegen.EncodeProgram(p, st))
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*.art")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Flush waits for in-flight background writes to land (or ctx to
// expire). Call on shutdown so a drain leaves the artifact store as
// warm as the memory tier was.
func (d *Disk) Flush(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ScanResult summarizes a warm-start scan of the artifact directory.
type ScanResult struct {
	// Entries and Bytes count well-formed artifact files (header framing
	// and payload checksum verified; payloads are not fully decoded).
	Entries int
	Bytes   int64
	// Corrupt counts invalid .art files found and removed.
	Corrupt int
}

// Scan walks the artifact directory, validating file framing and
// checksums, and prunes invalid artifacts. idemd runs it at boot so the
// operator sees what a -cache-dir warm start has to offer and so
// corruption surfaces immediately rather than on first request. Stale-
// but-valid artifacts (e.g. from an older options fingerprint) are left
// in place: they are unreachable until their exact key is requested
// again, but harmless.
func (d *Disk) Scan() ScanResult {
	var res ScanResult
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".art") ||
			strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			_, _, err = parseArtifact(data)
		}
		if err != nil {
			res.Corrupt++
			d.corrupt.Add(1)
			os.Remove(path)
			return nil
		}
		res.Entries++
		res.Bytes += int64(len(data))
		return nil
	})
	return res
}
