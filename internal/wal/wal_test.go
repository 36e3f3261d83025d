package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"domainnet/internal/table"
)

// burst builds the i-th test record of a synthetic history: each burst adds
// one small table on top of version i (one mutation, so versions advance by
// one per record).
func burst(i int) *Record {
	return &Record{
		PrevVersion: uint64(i),
		Version:     uint64(i + 1),
		Add: []*table.Table{
			table.New("t"+string(rune('a'+i%26))).AddColumn("animal", "jaguar", "puma"),
		},
	}
}

func openLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := l.Append(burst(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// readFrom decodes what ReadFrames returns: the records past from, at most
// maxReadBatch of them.
func readFrom(l *Log, from uint64) ([]*Record, error) {
	frames, _, err := l.ReadFrames(from)
	var recs []*Record
	for _, frame := range frames {
		payload, ferr := ReadFrame(bytes.NewReader(frame))
		if ferr != nil {
			return nil, ferr
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			return nil, derr
		}
		recs = append(recs, rec)
	}
	return recs, err
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{
		PrevVersion: 7,
		Version:     10,
		Remove:      []string{"old1", "old2"},
		Add: []*table.Table{
			table.New("cars").AddColumn("make", "jaguar", "fiat").AddColumn("city", "turin"),
		},
	}
	got, err := DecodeRecord(encodeRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: got %+v, want %+v", got, rec)
	}
}

// TestDecodeRecordOwnsItsInput: a decoded record's strings are substrings
// of the decoder's own copy of the payload, so overwriting the payload after
// DecodeRecord (a follower reusing its frame buffer) changes nothing decoded.
func TestDecodeRecordOwnsItsInput(t *testing.T) {
	rec := &Record{
		PrevVersion: 7,
		Version:     10,
		Remove:      []string{"old1", "old2"},
		Add: []*table.Table{
			table.New("cars").AddColumn("make", "jaguar", "fiat").AddColumn("city", "turin"),
		},
	}
	payload := encodeRecord(nil, rec)
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'X'
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("after overwriting the payload: got %+v, want %+v", got, rec)
	}
}

// TestStampReadCopiesNothing: a segment scan reads the version stamps of
// every record it passes, the ones ReadFrames skips included, so reading them
// must not copy the payload; only DecodeRecord copies, once per record kept.
func TestStampReadCopiesNothing(t *testing.T) {
	cells := make([]string, 1<<14)
	for i := range cells {
		cells[i] = fmt.Sprintf("value-%d", i)
	}
	payload := encodeRecord(nil, &Record{PrevVersion: 300, Version: 301,
		Add: []*table.Table{table.New("big").AddColumn("v", cells...)}})
	var prev, ver uint64
	var ok bool
	if allocs := testing.AllocsPerRun(100, func() { prev, ver, ok = stamps(payload) }); allocs != 0 {
		t.Errorf("reading the stamps of a %d-byte payload allocated %v times", len(payload), allocs)
	}
	if prev != 300 || ver != 301 || !ok {
		t.Errorf("stamps = %d, %d, %v; want 300, 301, true", prev, ver, ok)
	}
	if _, _, ok := stamps([]byte{0x80}); ok {
		t.Error("a payload cut inside its first stamp has stamps")
	}
}

func TestDecodeRecordRejectsVersionDrift(t *testing.T) {
	rec := &Record{PrevVersion: 3, Version: 9, Remove: []string{"only-one-mutation"}}
	if _, err := DecodeRecord(encodeRecord(nil, rec)); err == nil {
		t.Fatal("record claiming 6 version bumps for 1 mutation decoded without error")
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 5)

	versions := func(from uint64) []uint64 {
		t.Helper()
		recs, err := l.Replay(from)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, rec := range recs {
			got = append(got, rec.Version)
		}
		return got
	}
	if got := versions(0); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Errorf("replay from 0: versions=%v", got)
	}
	// Replay from mid-history skips already-applied records.
	if got := versions(3); !reflect.DeepEqual(got, []uint64{4, 5}) {
		t.Errorf("replay from 3: versions=%v", got)
	}
	// Replay from the tip returns nothing.
	if got := versions(5); got != nil {
		t.Errorf("replay from tip: versions=%v", got)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	l.Close()

	l2 := openLog(t, dir, Options{})
	if _, last, ok := l2.Bounds(); !ok || last != 3 {
		t.Fatalf("reopened bounds last=%d ok=%v, want 3", last, ok)
	}
	appendN(t, l2, 3, 2)
	recs, err := readFrom(l2, 0)
	if err != nil || len(recs) != 5 {
		t.Fatalf("readFrom(0) after reopen = %d records, err %v; want 5", len(recs), err)
	}
}

func TestAppendRejectsFork(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	appendN(t, l, 0, 3)
	if err := l.Append(burst(1)); err == nil {
		t.Fatal("append at version 1 onto a log at version 3 succeeded")
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation on nearly every append.
	l := openLog(t, dir, Options{SegmentBytes: 64})
	appendN(t, l, 0, 6)

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments at 64-byte rotation, got %d", len(segs))
	}

	// Everything must replay across the segment boundaries.
	recs, err := readFrom(l, 0)
	if err != nil || len(recs) != 6 {
		t.Fatalf("readFrom(0) = %d records, err %v; want 6", len(recs), err)
	}

	// A snapshot at version 4 makes segments fully below it garbage.
	if err := l.Truncate(4); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(after) >= len(segs) {
		t.Errorf("truncate removed nothing: %d → %d segments", len(segs), len(after))
	}

	// Replays from at-or-after the snapshot still work…
	if recs, err = readFrom(l, 4); err != nil || len(recs) != 2 {
		t.Fatalf("readFrom(4) after truncate = %d records, err %v; want 2", len(recs), err)
	}
	// …and replays from before the horizon report the gap instead of
	// silently skipping lost history.
	if _, err = readFrom(l, 0); !errors.Is(err, ErrGap) {
		t.Fatalf("readFrom(0) after truncate = %v, want ErrGap", err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	l.Close()

	// Simulate a crash mid-append: garbage half-frame at the end of the
	// active segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openLog(t, dir, Options{})
	if _, last, ok := l2.Bounds(); !ok || last != 3 {
		t.Fatalf("bounds after torn tail: last=%d ok=%v, want 3", last, ok)
	}
	// The torn bytes are gone: appends go to a clean tail and everything
	// replays.
	appendN(t, l2, 3, 1)
	recs, err := readFrom(l2, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("readFrom(0) after torn-tail recovery = %d records, err %v; want 4", len(recs), err)
	}
}

func TestBitFlipMidLogRefusesSilentLoss(t *testing.T) {
	// A bad frame with intact frames after it cannot be a torn tail (a
	// single crash only tears the end): dropping the valid records behind
	// it would silently lose acknowledged mutations, so Open must refuse.
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 4)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40 // flip a bit inside a middle record's payload
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open swallowed mid-log corruption with acknowledged records behind it")
	}
}

func TestLengthPrefixFlipMidLogRefusesSilentLoss(t *testing.T) {
	// Corrupting a *length prefix* destroys the frame-boundary chain, so
	// the boundary walk alone cannot see the intact frames behind it; the
	// byte-level resync scan must, and Open must refuse rather than
	// truncate acknowledged history.
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 4)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frames are identical in size; the second frame's length prefix sits
	// at hdr + frameLen.
	frameLen := (len(buf) - 5) / 4
	buf[5+frameLen] ^= 0x04 // second record's length prefix
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open swallowed a corrupted length prefix with acknowledged records behind it")
	}
}

func TestTruncateToleratesMissingSegments(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 64}) // one segment per burst
	appendN(t, l, 0, 6)

	// An earlier deletable segment vanishes out-of-band (a previous
	// truncation pass that died midway); Truncate must treat gone-already
	// as success, not wedge on it forever.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(4); err != nil {
		t.Fatalf("Truncate over a missing segment = %v", err)
	}
	if recs, err := readFrom(l, 4); err != nil || len(recs) != 2 {
		t.Fatalf("readFrom(4) = %d records, err %v; want 2", len(recs), err)
	}
}

func TestBitFlipInFinalRecordIsATornTail(t *testing.T) {
	// The same flip in the *final* record is indistinguishable from a torn
	// page in the crash-interrupted last append: truncate it, keep the
	// intact prefix, keep accepting appends.
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 4)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-6] ^= 0x40 // inside the last record's frame
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	if _, last, ok := l2.Bounds(); !ok || last != 3 {
		t.Fatalf("bounds after tail flip: last=%d ok=%v, want 3", last, ok)
	}
	appendN(t, l2, 3, 1)
	recs, err := readFrom(l2, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("readFrom(0) = %d records, err %v; want 4 (3 intact + 1 new)", len(recs), err)
	}
}

func TestFreshSegmentAfterSnapshotAheadOfLog(t *testing.T) {
	// A leader whose snapshot outruns a (truncated or late-enabled) WAL
	// appends its next burst with a forward version jump. Replays from the
	// snapshot version must work; stale followers must see ErrGap.
	l := openLog(t, t.TempDir(), Options{})
	rec := &Record{PrevVersion: 100, Version: 101,
		Add: []*table.Table{table.New("t").AddColumn("c", "v")}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if recs, err := readFrom(l, 100); err != nil || len(recs) != 1 {
		t.Fatalf("readFrom(100) = %d records, err %v", len(recs), err)
	}
	if _, err := readFrom(l, 50); !errors.Is(err, ErrGap) {
		t.Fatalf("readFrom(50) = %v, want ErrGap", err)
	}
}
