package jobs

// The job journal is what makes a job resumable across SIGTERM/SIGKILL:
// every completed unit's result bytes are appended to a per-job file
// under <dir>/jobs/, and a restarted daemon reloads them instead of
// re-simulating. The format follows the artifact store's framing
// discipline (internal/buildcache/disk.go): a verified header written
// atomically via temp file + rename, checksummed records, and the rule
// that any mismatch is a recovery miss, never an error.
//
// Layout of <dir>/jobs/<id>.job:
//
//	header:  magic "IDEMJOB\n", uvarint version, id, uvarint unit count,
//	         uvarint body length, sha256(body), body (the original
//	         /v1/jobs request body — recovery re-derives the units from
//	         it, so the journal is self-contained)
//	records: uvarint index, uvarint payload length, sha256(payload),
//	         payload (one unit's marshaled BatchResult bytes), appended
//	         with O_APPEND as units complete — in completion order, not
//	         index order
//
// The header rename is atomic, so a crash during job creation leaves no
// partially-visible journal. Records are appended without fsync (the
// same trade the artifact store makes): a crash can lose the tail, which
// costs re-execution of those units — safe, because units are idempotent
// — and a torn final record is detected by its framing and truncated
// away on recovery.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

const (
	journalMagic   = "IDEMJOB\n"
	journalVersion = 1
	journalExt     = ".job"
)

// journal is the append handle for one job's file. All methods are
// best-effort: journaling is an optimization (resume instead of rerun)
// and a full or read-only disk must not fail the job itself.
type journal struct {
	path string

	mu sync.Mutex
	f  *os.File // nil after close
}

// jobsDir returns the journal directory under the cache root.
func jobsDir(root string) string { return filepath.Join(root, "jobs") }

// encodeJournalHeader frames the header block.
func encodeJournalHeader(id string, units int, body []byte) []byte {
	buf := []byte(journalMagic)
	buf = binary.AppendUvarint(buf, journalVersion)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = binary.AppendUvarint(buf, uint64(units))
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	sum := sha256.Sum256(body)
	buf = append(buf, sum[:]...)
	buf = append(buf, body...)
	return buf
}

// encodeRecord frames one completed unit.
func encodeRecord(index int, payload []byte) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(index))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// createJournal writes the header atomically (temp + rename, the
// artifact store's discipline) and opens the file for record appends.
// It returns nil on any failure: the job then runs unjournaled.
func createJournal(dir, id string, units int, body []byte) *journal {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	path := filepath.Join(dir, id+journalExt)
	tmp, err := os.CreateTemp(dir, ".tmp-*"+journalExt)
	if err != nil {
		return nil
	}
	if _, err := tmp.Write(encodeJournalHeader(id, units, body)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil
	}
	return &journal{path: path, f: f}
}

// openJournalForAppend reopens a recovered journal, truncating a torn
// tail at goodLen first. Returns nil on failure (the resumed job then
// journals nothing further; already-journaled results stay usable).
func openJournalForAppend(path string, goodLen int64) *journal {
	if err := os.Truncate(path, goodLen); err != nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil
	}
	return &journal{path: path, f: f}
}

// append writes one completed unit's record. One write call per record
// keeps concurrent appends from interleaving (O_APPEND is atomic per
// write on POSIX for regular files); the mutex serializes against close.
func (j *journal) append(index int, payload []byte) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.f.Write(encodeRecord(index, payload))
}

// close releases the file handle (further appends become no-ops).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// remove closes and deletes the journal file — the cancel path: a
// canceled job must not resurrect on restart.
func (j *journal) remove() {
	if j == nil {
		return
	}
	j.close()
	os.Remove(j.path)
}

// journalRecord is one decoded completed-unit record.
type journalRecord struct {
	index   int
	payload []byte
}

// decodedJournal is the parse result of one journal file.
type decodedJournal struct {
	id      string
	units   int
	body    []byte
	records []journalRecord
	// goodLen is the byte offset after the last intact record; anything
	// beyond it (a torn tail from a crash mid-append) is truncated away
	// when the journal is reopened for appends.
	goodLen int64
}

// decodeJournal parses a journal file. A header problem is an error (the
// file is not a usable journal and recovery prunes it); a record problem
// just ends the record stream — a torn or corrupt tail only costs the
// re-execution of units whose records were lost.
func decodeJournal(data []byte) (*decodedJournal, error) {
	rest := data
	// take compares n with len(rest) before converting it: a corrupt
	// length can exceed any int.
	take := func(n uint64) ([]byte, bool) {
		if uint64(len(rest)) < n {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, false
		}
		rest = rest[k:]
		return v, true
	}

	if m, ok := take(uint64(len(journalMagic))); !ok || string(m) != journalMagic {
		return nil, fmt.Errorf("bad magic")
	}
	ver, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("truncated version")
	}
	if ver != journalVersion {
		return nil, fmt.Errorf("journal version %d, want %d", ver, journalVersion)
	}
	idLen, ok := uvarint()
	if !ok || idLen > 256 {
		return nil, fmt.Errorf("truncated id")
	}
	idB, ok := take(idLen)
	if !ok {
		return nil, fmt.Errorf("truncated id")
	}
	units, ok := uvarint()
	if !ok || units == 0 || units > 1<<20 {
		return nil, fmt.Errorf("implausible unit count")
	}
	bodyLen, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("truncated body length")
	}
	wantSum, ok := take(sha256.Size)
	if !ok {
		return nil, fmt.Errorf("truncated body checksum")
	}
	body, ok := take(bodyLen)
	if !ok {
		return nil, fmt.Errorf("truncated body")
	}
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], wantSum) {
		return nil, fmt.Errorf("body checksum mismatch")
	}

	dj := &decodedJournal{
		id:      string(idB),
		units:   int(units),
		body:    body,
		goodLen: int64(len(data) - len(rest)),
	}
	for len(rest) > 0 {
		idx, ok := uvarint()
		if !ok || idx >= units {
			break
		}
		plen, ok := uvarint()
		if !ok {
			break
		}
		sum, ok := take(sha256.Size)
		if !ok {
			break
		}
		payload, ok := take(plen)
		if !ok {
			break
		}
		if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
			break
		}
		dj.records = append(dj.records, journalRecord{index: int(idx), payload: payload})
		dj.goodLen = int64(len(data) - len(rest))
	}
	return dj, nil
}
