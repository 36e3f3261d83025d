package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"domainnet/internal/table"
)

// storedFrames splits the log directory's segment files as they lie on
// disk — a 5-byte header, then frames of [uint32 length | payload | CRC] —
// and returns every frame, oldest first, with its record's Version.
func storedFrames(t testing.TB, dir string) (frames [][]byte, vers []uint64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg")) // zero-padded names sort by start
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for buf = buf[5:]; len(buf) > 0; buf = buf[8+binary.LittleEndian.Uint32(buf):] {
			frame := buf[:8+binary.LittleEndian.Uint32(buf)]
			rec, err := DecodeRecord(frame[4 : len(frame)-4])
			if err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			frames, vers = append(frames, frame), append(vers, rec.Version)
		}
	}
	return frames, vers
}

// checkReadFrames holds ReadFrames, from every version between the log's
// horizon and its newest, to the frames storedFrames cuts from the segment
// files: the ones past from, at most maxReadBatch of them, and the Version
// of the last. Below the horizon it must report ErrGap.
func checkReadFrames(t *testing.T, l *Log, dir, stage string) {
	t.Helper()
	frames, vers := storedFrames(t, dir)
	horizon, last, ok := l.Bounds()
	if !ok || len(vers) == 0 || vers[len(vers)-1] != last {
		t.Fatalf("%s: Bounds = %d, %d, %v for %d stored frames", stage, horizon, last, ok, len(frames))
	}
	for from := horizon; from <= last; from++ {
		k := sort.Search(len(vers), func(i int) bool { return vers[i] > from })
		want := frames[k:min(k+maxReadBatch, len(frames))]
		var wantLast uint64
		if len(want) > 0 {
			wantLast = vers[k+len(want)-1]
		}
		got, gotLast, err := l.ReadFrames(from)
		if err != nil || gotLast != wantLast || len(got) != len(want) {
			t.Fatalf("%s: ReadFrames(%d) = %d frames up to %d, %v; want %d up to %d",
				stage, from, len(got), gotLast, err, len(want), wantLast)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: ReadFrames(%d) frame %d differs from the stored bytes", stage, from, i)
			}
		}
	}
	if horizon > 0 {
		if _, _, err := l.ReadFrames(horizon - 1); !errors.Is(err, ErrGap) {
			t.Fatalf("%s: ReadFrames(%d) below the horizon %d = %v, want ErrGap", stage, horizon-1, horizon, err)
		}
	}
}

// TestReadFramesMatchesStoredBytes: across rotations, a truncated horizon,
// a reopen and a torn tail that Open cuts, ReadFrames from every retained
// version returns exactly the frames the segment files hold past it. The
// active segment holds more than maxReadBatch records, so the indexed read
// also stops at a batch inside it.
func TestReadFramesMatchesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 512})
	appendN(t, l, 0, 40)
	if err := l.Truncate(12); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 3 {
		t.Fatalf("%d segments after 40 appends at 512 bytes each, want several", len(segs))
	}
	checkReadFrames(t, l, dir, "live")
	l.Close()

	l = openLog(t, dir, Options{SegmentBytes: 512})
	checkReadFrames(t, l, dir, "reopened")
	l.Close()

	// One large active segment: the indexed read from early in it stops at
	// maxReadBatch records.
	l = openLog(t, dir, Options{SegmentBytes: 1 << 20})
	appendN(t, l, 40, maxReadBatch+20)
	checkReadFrames(t, l, dir, "past a batch")
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l = openLog(t, dir, Options{SegmentBytes: 1 << 20})
	checkReadFrames(t, l, dir, "torn tail cut")
	appendN(t, l, 40+maxReadBatch+20, 3)
	checkReadFrames(t, l, dir, "appended after the cut")
}

// TestTipReadSkipsEarlierDamage: a read one record behind the tip reads
// only the frame it returns, so damage to an earlier committed frame of the
// active segment does not reach it; reads from before the damage, and
// Replay, still refuse it as corruption.
func TestTipReadSkipsEarlierDamage(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	appendN(t, l, 0, 8)
	frames, _ := storedFrames(t, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(5 + len(frames[0]) + 6) // inside the 2nd record's payload
	if _, err := f.WriteAt([]byte{frames[1][6] ^ 0x40}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, last, err := l.ReadFrames(7)
	if err != nil || last != 8 || len(got) != 1 || !bytes.Equal(got[0], frames[7]) {
		t.Fatalf("ReadFrames(7) = %d frames up to %d, %v; want the last stored frame", len(got), last, err)
	}
	for _, from := range []uint64{0, 1} {
		if _, _, err := l.ReadFrames(from); err == nil || !strings.Contains(err.Error(), "corrupt record") {
			t.Errorf("ReadFrames(%d) across the damaged record = %v, want the corruption error", from, err)
		}
	}
	if _, err := l.Replay(0); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Errorf("Replay(0) across the damaged record = %v, want the corruption error", err)
	}
}

// TestTipReadsRaceRotatingAppends: followers reading one record behind the
// tip while Append commits and rotates segments each get a chain of
// records that starts right after the version they asked from.
func TestTipReadsRaceRotatingAppends(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 0, 1)
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for range cap(errs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, tip, _ := l.Bounds()
				frames, last, err := l.ReadFrames(tip - 1)
				if err == nil && (len(frames) == 0 || last < tip) {
					err = fmt.Errorf("ReadFrames(%d) = %d frames up to %d with the log at %d", tip-1, len(frames), last, tip)
				}
				for i, frame := range frames {
					if err != nil {
						break
					}
					var rec *Record
					if rec, err = DecodeRecord(frame[4 : len(frame)-4]); err == nil && rec.PrevVersion != tip-1+uint64(i) {
						err = fmt.Errorf("ReadFrames(%d) frame %d applies at %d", tip-1, i, rec.PrevVersion)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	appendN(t, l, 1, 150)
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 10 {
		t.Errorf("%d segments after 151 appends at 256 bytes each, want rotations", len(segs))
	}
}

// upload is the i-th record of an isolated upload's shape: one new table
// of 2 columns and 40 rows of values found nowhere else.
func upload(i int) *Record {
	cols := [2][]string{}
	for c := range cols {
		for r := range 40 {
			cols[c] = append(cols[c], fmt.Sprintf("upload%d-col%d-value%d", i, c, r))
		}
	}
	return &Record{PrevVersion: uint64(i), Version: uint64(i + 1), Add: []*table.Table{
		table.New(fmt.Sprintf("upload%d", i)).AddColumn("a", cols[0]...).AddColumn("b", cols[1]...),
	}}
}

// BenchmarkReadFramesTip times the change feed's steady-state read: the
// frame of a follower one burst behind the tip, on an active segment of 100
// and of 10,000 isolated uploads. The segment is written in one piece and
// indexed by Open, untimed.
func BenchmarkReadFramesTip(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			seg := binary.AppendUvarint(append([]byte(nil), magic[:]...), FormatVersion)
			for i := range n {
				seg = appendFrame(seg, encodeRecord(nil, upload(i)))
			}
			if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000000.seg"), seg, 0o644); err != nil {
				b.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			for b.Loop() {
				frames, last, err := l.ReadFrames(uint64(n - 1))
				if err != nil || len(frames) != 1 || last != uint64(n) {
					b.Fatalf("ReadFrames(%d) = %d frames up to %d, %v", n-1, len(frames), last, err)
				}
			}
		})
	}
}
