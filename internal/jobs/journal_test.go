package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// hugeBodyLength is a journal header whose body length is 2^64-1, which
// turns negative as an int.
func hugeBodyLength() []byte {
	h := []byte(journalMagic)
	h = binary.AppendUvarint(h, journalVersion)
	h = binary.AppendUvarint(h, 2)
	h = append(h, "jx"...)
	h = binary.AppendUvarint(h, 1)
	h = binary.AppendUvarint(h, math.MaxUint64)
	h = append(h, make([]byte, sha256.Size)...)
	return append(h, `{"units":[{}]}`...)
}

// hugeRecordLength is a valid journal with one intact record followed
// by a record whose payload length is 2^64-1. It returns the journal
// and the length of its intact prefix.
func hugeRecordLength() ([]byte, int) {
	data := encodeJournalHeader("jx", 2, []byte(`{"units":[{},{}]}`))
	data = append(data, encodeRecord(0, []byte("good"))...)
	intact := len(data)
	data = binary.AppendUvarint(data, 1)
	data = binary.AppendUvarint(data, math.MaxUint64)
	data = append(data, make([]byte, sha256.Size)...)
	return append(data, "tail"...), intact
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"units":[{"a":1},{"a":2},{"a":3}]}`)
	jr := createJournal(dir, "jcafe", 3, body)
	if jr == nil {
		t.Fatal("createJournal returned nil")
	}
	jr.append(2, []byte("result-two"))
	jr.append(0, []byte("result-zero"))
	jr.close()

	data, err := os.ReadFile(filepath.Join(dir, "jcafe"+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	dj, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if dj.id != "jcafe" || dj.units != 3 || !bytes.Equal(dj.body, body) {
		t.Fatalf("decoded header = %q/%d", dj.id, dj.units)
	}
	if len(dj.records) != 2 ||
		dj.records[0].index != 2 || string(dj.records[0].payload) != "result-two" ||
		dj.records[1].index != 0 || string(dj.records[1].payload) != "result-zero" {
		t.Fatalf("decoded records = %+v", dj.records)
	}
	if dj.goodLen != int64(len(data)) {
		t.Fatalf("goodLen = %d, want %d (whole file intact)", dj.goodLen, len(data))
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"units":[{},{}]}`)
	jr := createJournal(dir, "jtear", 2, body)
	if jr == nil {
		t.Fatal("createJournal returned nil")
	}
	jr.append(0, []byte("intact"))
	jr.close()
	path := filepath.Join(dir, "jtear"+journalExt)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record: a full record minus
	// its last byte.
	torn := append(append([]byte{}, intact...), encodeRecord(1, []byte("lost"))[:10]...)

	dj, err := decodeJournal(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(dj.records) != 1 || dj.records[0].index != 0 {
		t.Fatalf("records = %+v, want only the intact one", dj.records)
	}
	if dj.goodLen != int64(len(intact)) {
		t.Fatalf("goodLen = %d, want %d", dj.goodLen, len(intact))
	}

	// Reopening for append truncates the tail, and new appends decode.
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	jr2 := openJournalForAppend(path, dj.goodLen)
	if jr2 == nil {
		t.Fatal("openJournalForAppend returned nil")
	}
	jr2.append(1, []byte("redone"))
	jr2.close()
	data, _ := os.ReadFile(path)
	dj2, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dj2.records) != 2 || string(dj2.records[1].payload) != "redone" {
		t.Fatalf("post-truncate records = %+v", dj2.records)
	}
}

func TestJournalCorruptRecordChecksumEndsStream(t *testing.T) {
	dir := t.TempDir()
	jr := createJournal(dir, "jflip", 4, []byte(`{"units":[{},{},{},{}]}`))
	jr.append(0, []byte("good"))
	jr.append(1, []byte("evil"))
	jr.close()
	path := filepath.Join(dir, "jflip"+journalExt)
	data, _ := os.ReadFile(path)
	// Flip a bit in the last record's payload ("evil" at the tail).
	data[len(data)-1] ^= 0x40
	dj, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dj.records) != 1 || dj.records[0].index != 0 {
		t.Fatalf("records = %+v, want corrupt tail dropped", dj.records)
	}
}

func TestJournalHeaderCorruptionIsError(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTMAGIC and then some trailing bytes"),
		"truncated": []byte(journalMagic),
	}
	// Body checksum mismatch.
	h := encodeJournalHeader("jx", 1, []byte(`{"units":[{}]}`))
	h[len(h)-1] ^= 1
	cases["body bitflip"] = h
	cases["huge body length"] = hugeBodyLength()

	for name, data := range cases {
		if _, err := decodeJournal(data); err == nil {
			t.Errorf("%s: decodeJournal succeeded, want error", name)
		}
	}
}

// TestJournalHugeRecordLengthEndsStream: a record length beyond the
// file ends the record stream at that record and keeps the ones before.
func TestJournalHugeRecordLengthEndsStream(t *testing.T) {
	data, intact := hugeRecordLength()
	dj, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dj.records) != 1 || dj.records[0].index != 0 || string(dj.records[0].payload) != "good" {
		t.Fatalf("records = %+v, want only the intact one", dj.records)
	}
	if dj.goodLen != int64(intact) {
		t.Fatalf("goodLen = %d, want %d", dj.goodLen, intact)
	}
}

// FuzzDecodeJournal: no input panics the decoder, and a decoded journal
// re-encodes to bytes that decode to the same journal.
func FuzzDecodeJournal(f *testing.F) {
	valid := encodeJournalHeader("jseed", 3, []byte(`{"units":[{},{},{}]}`))
	valid = append(valid, encodeRecord(2, []byte("two"))...)
	valid = append(valid, encodeRecord(0, []byte("zero"))...)
	hugeRecord, _ := hugeRecordLength()
	f.Add(valid)
	f.Add(hugeBodyLength())
	f.Add(hugeRecord)
	f.Fuzz(func(t *testing.T, data []byte) {
		dj, err := decodeJournal(data)
		if err != nil {
			return
		}
		if dj.goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d beyond %d input bytes", dj.goodLen, len(data))
		}
		again := encodeJournalHeader(dj.id, dj.units, dj.body)
		for _, r := range dj.records {
			again = append(again, encodeRecord(r.index, r.payload)...)
		}
		dj2, err := decodeJournal(again)
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		dj.goodLen, dj2.goodLen = 0, 0
		if !reflect.DeepEqual(dj, dj2) {
			t.Fatalf("round trip changed the journal:\n%+v\n%+v", dj, dj2)
		}
	})
}

func TestJournalNilSafe(t *testing.T) {
	var jr *journal
	jr.append(0, []byte("x")) // must not panic
	jr.close()
	jr.remove()
}
