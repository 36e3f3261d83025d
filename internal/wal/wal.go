// Package wal is the write-ahead mutation log of the serving layer: a
// segmented, CRC-checked, length-prefixed append log of lake mutation bursts
// that closes the durability gap between two snapshot checkpoints. The
// serving layer appends (and fsyncs) every burst *before* applying it in
// memory, so an acknowledged mutation is durable even if the process dies the
// next instant. Recovery is persist.Load and serve.NewWithOptions, then
// Replay of the records past the snapshot's version into serve.Server.Replay,
// the path a replication follower applies the same records through.
//
// A Record is one atomic burst — the tables removed and added together under
// the serving layer's write lock — stamped with the lake version it applies
// on top of (PrevVersion) and the version it produces (Version). It is the
// serving layer's burst type too (serve.Mutation is an alias). Versions
// chain: Replay and ReadFrames verify the chain of the records they read, so
// a missing segment surfaces as ErrGap instead of silent divergence, and
// serve.Server.Replay checks each record's PrevVersion against the lake.
//
// On-disk layout: one directory of segment files named wal-<prevversion>.seg,
// each holding a 4-byte magic + uvarint format version header followed by
// frames of [uint32 length | payload | uint32 CRC-32]. Payloads reuse the
// internal/persist codec primitives, so tables have one binary format across
// both durability layers. Segments rotate at Options.SegmentBytes; Truncate
// deletes segments wholly covered by the latest durable snapshot. A torn
// final frame (crash mid-append) is detected by its CRC and truncated away on
// Open; torn frames anywhere else mean real corruption and fail Replay.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"domainnet/internal/persist"
	"domainnet/internal/table"
)

// FormatVersion is the current segment format. Readers reject segments with
// a newer version instead of mis-parsing them.
const FormatVersion = 1

// magic identifies a DomainNet WAL segment file.
var magic = [4]byte{'D', 'N', 'W', 'L'}

// maxFrameBytes bounds a single record frame (a burst's encoded tables); a
// corrupt length prefix must not trigger a multi-gigabyte allocation before
// the CRC check can reject it. The serving layer caps uploads far below this.
const maxFrameBytes = 256 << 20

// ErrGap marks a replay or read whose starting version is older than the
// log's horizon: the records needed to bridge it were truncated (or never
// written). Followers react by fetching a full snapshot; a leader booting
// with mismatched snapshot and WAL directories should treat it as fatal.
var ErrGap = errors.New("wal: requested version is behind the log horizon")

// Record is one atomic lake mutation burst: the tables removed and then
// added under one write-lock acquisition, and the one type that declares a
// burst (serve.Mutation is this type). Versions stamp the lake's update
// counter — PrevVersion before the burst, Version after it (the lake bumps
// once per removed and once per added table, so Version-PrevVersion equals
// len(Remove)+len(Add)).
type Record struct {
	PrevVersion uint64
	Version     uint64
	Remove      []string
	Add         []*table.Table
}

// encodeRecord appends the record's payload encoding (no frame) to b. Only
// Append encodes: the replication feed sends the frames it stored.
func encodeRecord(b []byte, rec *Record) []byte {
	b = binary.AppendUvarint(b, rec.PrevVersion)
	b = binary.AppendUvarint(b, rec.Version)
	b = binary.AppendUvarint(b, uint64(len(rec.Remove)))
	for _, name := range rec.Remove {
		b = persist.AppendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Add)))
	for _, t := range rec.Add {
		b = persist.AppendTable(b, t)
	}
	return b
}

// DecodeRecord decodes a payload written by encodeRecord. Corrupt input
// yields an error, never a panic.
func DecodeRecord(payload []byte) (*Record, error) {
	r := persist.NewReader(payload)
	rec := &Record{PrevVersion: r.Uvarint(), Version: r.Uvarint()}
	nRemove := r.Length("removal")
	for i := 0; i < nRemove && r.Err() == nil; i++ {
		rec.Remove = append(rec.Remove, r.String())
	}
	nAdd := r.Length("table")
	for i := 0; i < nAdd && r.Err() == nil; i++ {
		rec.Add = append(rec.Add, r.Table())
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("wal: record: %w", r.Err())
	}
	if rec.Version < rec.PrevVersion ||
		rec.Version-rec.PrevVersion != uint64(len(rec.Remove)+len(rec.Add)) {
		return nil, fmt.Errorf("wal: record versions %d→%d do not match %d mutations",
			rec.PrevVersion, rec.Version, len(rec.Remove)+len(rec.Add))
	}
	return rec, nil
}

// appendFrame appends a framed payload — uint32 length, payload bytes,
// uint32 CRC-32 — to b. The replication feed sends these frames on the wire,
// so a follower parses /repl/changes with ReadFrame.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// ReadFrame reads one framed payload from r. It returns io.EOF at a clean
// end (no bytes), and a descriptive error for a truncated or CRC-corrupt
// frame. Callers decide whether a bad frame is a tolerable torn tail (last
// segment of a crashed process) or corruption.
func ReadFrame(r io.Reader) ([]byte, error) {
	buf := make([]byte, 0, 512)
	for {
		payload, end, shape := frameAt(buf, 0)
		switch shape {
		case frameValid:
			return payload, nil
		case frameBadCRC:
			return nil, fmt.Errorf("wal: frame checksum mismatch")
		case frameOversize:
			return nil, fmt.Errorf("wal: frame length %d exceeds limit %d", end-8, maxFrameBytes)
		}
		// Short: read on toward the claimed end. The buffer at most doubles
		// what has arrived rather than trusting the length prefix: a corrupt
		// prefix claiming 256 MiB on a short stream must fail after reading
		// what exists, not allocate first.
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(int(end)-len(buf), len(buf)))
		}
		n, err := io.ReadFull(r, buf[len(buf):min(int(end), cap(buf))])
		buf = buf[:len(buf)+n]
		if err == io.EOF && len(buf) == 0 {
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("wal: truncated frame (%d of %d bytes): %w", len(buf), end, err)
		}
	}
}

// Options tune a Log. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment that has grown past
	// it is closed and a fresh one started by the next Append. Zero means
	// 64 MiB.
	SegmentBytes int64
}

// segment is one on-disk segment: its start (the PrevVersion of its first
// record — records in the file cover versions (start, nextStart]) and name.
type segment struct {
	start uint64
	name  string
}

// Log is an append-only mutation log over one directory. It is safe for
// concurrent use, and reads do not block appends: ReadFrames/Replay take a
// consistent snapshot of the segment list and the committed size under the
// mutex, then do all file I/O and decoding outside it — segments are
// immutable once rotated, and the active one only grows past the committed
// size they cap themselves to. The replication feed can therefore stream
// history while the write path commits new bursts.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []segment
	active   *os.File // append handle for the last segment; nil until first Append
	size     int64    // committed size of the active segment
	last     uint64   // Version of the newest record, valid when nonEmpty
	nonEmpty bool
	broken   error // sticky: a partial append poisons the tail for further appends
}

// Open opens (creating if needed) the log directory, scans existing
// segments, and truncates a torn final frame left by a crash mid-append.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %s", name)
		}
		l.segs = append(l.segs, segment{start: start, name: name})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].start < l.segs[j].start })

	// Cut the torn tail a crash mid-append leaves behind. Only the final
	// segment can end mid-frame; one with no readable header at all (crash
	// during segment creation, before rotate's sync) is removed outright so
	// the append path never writes records into a header-less file.
	lastVersion := func(path string) (last uint64, any bool, validLen int64, err error) {
		validLen, _, err = scanSegment(path, -1, func(_, ver uint64, _ []byte) (bool, error) {
			last, any = ver, true
			return true, nil
		})
		return last, any, validLen, err
	}
	for len(l.segs) > 0 {
		i := len(l.segs) - 1
		path := filepath.Join(dir, l.segs[i].name)
		last, any, validLen, err := lastVersion(path)
		if err != nil {
			return nil, err
		}
		if validLen == 0 {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: removing torn segment %s: %w", path, err)
			}
			l.segs = l.segs[:i]
			continue
		}
		if fi, err := os.Stat(path); err == nil && fi.Size() > validLen {
			if err := os.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
		}
		if any {
			l.last = last
			l.nonEmpty = true
		}
		break
	}
	// The tail segment may hold a header and no records yet (crash right
	// after a rotation); the newest committed version then lives further
	// back.
	for i := len(l.segs) - 2; i >= 0 && !l.nonEmpty; i-- {
		last, any, _, err := lastVersion(filepath.Join(dir, l.segs[i].name))
		if err != nil {
			return nil, err
		}
		if any {
			l.last = last
			l.nonEmpty = true
		}
	}
	if n := len(l.segs); n > 0 {
		path := filepath.Join(dir, l.segs[n-1].name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.active, l.size = f, fi.Size()
	}
	return l, nil
}

// Close releases the active segment handle. Appending after Close fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// Bounds reports the version range the log can replay: horizon is the
// PrevVersion of the oldest retained record (replays may start at or after
// it) and last is the Version of the newest. ok is false for an empty log.
func (l *Log) Bounds() (horizon, last uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.nonEmpty {
		return 0, 0, false
	}
	return l.segs[0].start, l.last, true
}

// Append durably commits one record: encode, frame, write to the active
// segment (rotating first when it is over the size threshold), fsync. It
// must be called before the mutation is applied in memory or acknowledged —
// write-ahead, not write-behind. Records must chain forward: appending a
// record whose PrevVersion precedes the newest committed Version would fork
// history and is rejected. The committed frame bytes are returned so a
// caller feeding replicas (internal/repl's tail ring) reuses them instead
// of re-encoding the burst — Append runs on the write path, where every
// redundant encode of a large batch extends the lock hold.
func (l *Log) Append(rec *Record) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return nil, l.broken
	}
	if l.nonEmpty && rec.PrevVersion < l.last {
		return nil, fmt.Errorf("wal: record at version %d→%d forks history (log is at %d)",
			rec.PrevVersion, rec.Version, l.last)
	}
	if l.active == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotate(rec.PrevVersion); err != nil {
			return nil, err
		}
	}
	frame := appendFrame(nil, encodeRecord(nil, rec))
	if _, err := l.active.Write(frame); err != nil {
		// The frame may be partially in the file: committing more records
		// after it would interleave an unacknowledged burst into the
		// replayable history. Poison the log; the owner must restart (and
		// recover through Open's torn-tail truncation).
		l.broken = fmt.Errorf("wal: append failed, log needs reopening: %w", err)
		return nil, l.broken
	}
	if err := l.active.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: fsync failed, log needs reopening: %w", err)
		return nil, l.broken
	}
	l.size += int64(len(frame))
	l.last = rec.Version
	l.nonEmpty = true
	return frame, nil
}

// rotate closes the active segment and starts a fresh one whose first
// record will apply on top of version start. Callers hold l.mu.
func (l *Log) rotate(start uint64) error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.active = nil
	}
	name := fmt.Sprintf("wal-%020d.seg", start)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	header := binary.AppendUvarint(append([]byte(nil), magic[:]...), FormatVersion)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	// Make the segment's directory entry durable before any record commits
	// into it; otherwise a power loss could keep records whose segment file
	// vanished.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if d, err := os.Open(l.dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			// The new segment's directory entry may not survive a crash;
			// reporting rotate as failed is the only honest option.
			f.Close()
			return fmt.Errorf("wal: sync dir: %w", serr)
		}
	}
	l.segs = append(l.segs, segment{start: start, name: name})
	l.active, l.size = f, int64(len(header))
	return nil
}

// Truncate deletes segments made obsolete by a durable snapshot at version:
// a segment is removable when the next segment starts at or before version,
// meaning every record it holds is already reflected in the snapshot. The
// active (last) segment is always retained.
func (l *Log) Truncate(version uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	var firstErr error
	for i, seg := range l.segs {
		if firstErr == nil && i+1 < len(l.segs) && l.segs[i+1].start <= version {
			// A segment that is already gone is exactly the goal state;
			// tolerating it (and recording partial progress in l.segs even
			// when a later removal fails) keeps one transient error from
			// wedging truncation forever.
			if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				firstErr = fmt.Errorf("wal: %w", err)
				kept = append(kept, seg) // still present; retry next checkpoint
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return firstErr
}

// maxReadBatch caps the records one ReadFrames call returns, bounding the
// memory a far-behind reader (a follower at version 0 against a deep log)
// can pin. Readers loop: the next call continues from the batch's last
// version.
const maxReadBatch = 512

// ReadFrames returns the committed frames of the records with Version >
// from, in commit order and as stored — CRC-checked, not decoded — with the
// Version of the last one: at most maxReadBatch of them; call again from
// last for more. The replication feed sends them as they are, so a burst is
// encoded once, by Append. It returns ErrGap when the log's retained records
// cannot bridge from: the caller's state is older than the horizon.
func (l *Log) ReadFrames(from uint64) (frames [][]byte, last uint64, err error) {
	err = l.iterate(from, maxReadBatch, func(ver uint64, frame []byte) error {
		frames = append(frames, slices.Clone(frame))
		last = ver
		return nil
	})
	return frames, last, err
}

// Replay decodes every committed record with Version > from, in commit
// order, verifying the version chain. Recovery is persist.Load (or an empty
// lake) and serve.NewWithOptions, then Replay from the server's version into
// one Server.Replay call, which applies the records the way a follower does.
func (l *Log) Replay(from uint64) ([]*Record, error) {
	var recs []*Record
	err := l.iterate(from, 0, func(ver uint64, frame []byte) error {
		rec, err := DecodeRecord(frame[4 : len(frame)-4]) // the payload, between length and CRC
		if err != nil {
			return fmt.Errorf("wal: checksummed record at version %d does not decode: %w", ver, err)
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// iterate drives ReadFrames and Replay: the frames of records with Version >
// from, in commit order, at most limit of them when limit > 0. Only the
// segment-list snapshot and the committed tail size are taken under the
// mutex; all file reads happen outside it, so a deep history scan never
// stalls the append path. That is safe because rotated segments are
// immutable and the active segment only grows past the committed size the
// scan caps itself to.
func (l *Log) iterate(from uint64, limit int, fn func(ver uint64, frame []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	activeSize := int64(-1)
	if l.active != nil {
		activeSize = l.size
	}
	l.mu.Unlock()

	// Start at the last segment whose first record could still be needed:
	// segment i covers versions (start_i, start_{i+1}], so the newest
	// segment with start <= from may straddle the boundary.
	first := 0
	for i, seg := range segs {
		if seg.start <= from {
			first = i
		}
	}
	expect := from
	applied := 0
	for i := first; i < len(segs); i++ {
		capSize := int64(-1)
		if i == len(segs)-1 {
			capSize = activeSize
		}
		path := filepath.Join(l.dir, segs[i].name)
		done := false
		_, clean, err := scanSegment(path, capSize, func(prev, ver uint64, frame []byte) (bool, error) {
			// Records already reflected in the caller's state are skipped
			// on their peeked version stamps alone — no table decode — so
			// resuming a catch-up pays CRC-scan cost for the segment
			// prefix, not decode cost.
			if ver <= from {
				return true, nil
			}
			if prev != expect {
				if applied == 0 && prev > expect {
					return false, fmt.Errorf("%w (need version %d, oldest retained record starts at %d)",
						ErrGap, from, prev)
				}
				return false, fmt.Errorf("wal: %s: record chain broken (expected version %d, record applies at %d)",
					path, expect, prev)
			}
			if err := fn(ver, frame); err != nil {
				return false, err
			}
			expect = ver
			applied++
			if limit > 0 && applied >= limit {
				done = true
				return false, nil
			}
			return true, nil
		})
		if errors.Is(err, os.ErrNotExist) {
			// Truncate deleted the segment between our snapshot and the
			// read: the history below the new horizon is gone.
			return fmt.Errorf("%w (segment %s was truncated mid-read)", ErrGap, segs[i].name)
		}
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if !clean && i != len(segs)-1 {
			return fmt.Errorf("wal: %s: torn record before the end of the log", path)
		}
	}
	return nil
}

// frameShape is what frameAt found at an offset.
type frameShape int

const (
	frameShort    frameShape = iota // the buffer ends before the frame does
	frameOversize                   // the length prefix exceeds maxFrameBytes
	frameBadCRC                     // complete, but the checksum does not match
	frameValid
)

// frameAt is the one reader of a frame's length prefix and CRC: it looks at
// the frame starting at off and reports its shape, its payload when valid,
// and end, the offset the frame claims to end at (off+4 while not even the
// length prefix is in buf).
func frameAt(buf []byte, off int64) (payload []byte, end int64, shape frameShape) {
	rest := buf[off:]
	if len(rest) < 4 {
		return nil, off + 4, frameShort
	}
	n := int64(binary.LittleEndian.Uint32(rest))
	end = off + 4 + n + 4
	if n > maxFrameBytes {
		return nil, end, frameOversize
	}
	if end > int64(len(buf)) {
		return nil, end, frameShort
	}
	if crc32.ChecksumIEEE(rest[4:4+n]) != binary.LittleEndian.Uint32(rest[4+n:]) {
		return nil, end, frameBadCRC
	}
	return rest[4 : 4+n], end, frameValid
}

// frameStatus classifies one parsed segment frame.
type frameStatus int

const (
	frameOK      frameStatus = iota
	frameTorn                // the suffix shape a crash mid-append leaves
	frameCorrupt             // damage that cannot be a torn tail
)

// parseFrame parses the frame at off, returning its payload and end offset.
// A frame is frameTorn when it could be what a crash left behind —
// incomplete bytes, or a complete frame with a bad CRC and nothing valid
// after it (a torn page in the final write). A complete bad-CRC frame
// followed by a valid frame is bit rot in committed history (a single crash
// cannot produce it): frameCorrupt. A trashed length prefix (oversize, or
// claiming more bytes than exist) makes the claimed boundary meaningless, so
// the byte-level resync scan decides whether intact frames hide behind it.
func parseFrame(buf []byte, off int64) ([]byte, int64, frameStatus) {
	payload, end, shape := frameAt(buf, off)
	switch shape {
	case frameValid:
		return payload, end, frameOK
	case frameBadCRC:
		// The cheap check first — walk the claimed boundaries — then the
		// byte-level scan, which also catches a flipped length prefix whose
		// bogus boundary chain hides the intact frames after it.
		if anyValidFrameAfter(buf, end) || resyncFindsValidFrame(buf, off+1) {
			return nil, 0, frameCorrupt
		}
	default:
		if resyncFindsValidFrame(buf, off+1) {
			return nil, 0, frameCorrupt
		}
	}
	return nil, 0, frameTorn
}

// anyValidFrameAfter walks frame boundaries from off looking for one intact
// frame — the proof that a preceding bad frame is mid-log corruption rather
// than a torn tail. Iterative on purpose: a segment full of consecutive bad
// frames must not recurse the stack away.
func anyValidFrameAfter(buf []byte, off int64) bool {
	for off < int64(len(buf)) {
		_, end, shape := frameAt(buf, off)
		switch shape {
		case frameValid:
			return true
		case frameBadCRC:
			off = end
		default:
			return false
		}
	}
	return false
}

// resyncFindsValidFrame scans byte offsets from off for one intact frame,
// without trusting any length prefix — the recovery move when a corrupted
// length has destroyed the boundary chain. The work is budgeted (offsets
// tried and CRC bytes summed) so a large garbage tail stays cheap to
// classify: within the budget a hit proves mid-log corruption; past it, the
// conservative answer is "torn tail", matching the old behavior. For
// accidental corruption the next real frame sits within one frame length of
// the damage, far inside the budget.
func resyncFindsValidFrame(buf []byte, off int64) bool {
	const (
		maxOffsets  = 64 << 10 // candidate start positions tried
		maxCRCBytes = 16 << 20 // total payload bytes checksummed
	)
	offsets, crcBytes := 0, int64(0)
	for ; off < int64(len(buf)) && offsets < maxOffsets && crcBytes < maxCRCBytes; off++ {
		if int64(len(buf))-off < 8 {
			return false
		}
		offsets++
		_, end, shape := frameAt(buf, off)
		switch shape {
		case frameValid:
			return true
		case frameBadCRC:
			crcBytes += end - off - 8
		}
	}
	return false
}

// scanSegment walks one segment's committed frames in order, handing each
// record's peeked version stamps and its whole frame (not yet decoded) to fn;
// fn returns false to stop the scan early. capSize >= 0 restricts the scan
// to the committed prefix of the active segment (bytes past it may belong
// to an in-flight append). A torn tail stops the scan with clean=false —
// that is the expected shape of a crash and Open may truncate it — but
// corruption in front of valid records is an error: silently dropping
// acknowledged history would break the "a 2xx survives kill -9" contract.
// validLen is the byte length of the segment's valid prefix (what Open
// truncates a torn tail back to).
func scanSegment(path string, capSize int64, fn func(prev, ver uint64, frame []byte) (bool, error)) (validLen int64, clean bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	if capSize >= 0 && int64(len(buf)) > capSize {
		buf = buf[:capSize]
	}
	const hdrLen = 5 // magic + single-byte uvarint format version
	if len(buf) < hdrLen {
		// A header-less file can only be a crash during segment creation;
		// treat it as an empty torn segment.
		return 0, false, nil
	}
	if [4]byte(buf[:4]) != magic {
		return 0, false, fmt.Errorf("wal: %s is not a WAL segment", path)
	}
	if v := buf[4]; v != FormatVersion {
		return 0, false, fmt.Errorf("wal: %s: segment format %d, this build reads %d", path, v, FormatVersion)
	}
	off := int64(hdrLen)
	for off < int64(len(buf)) {
		payload, end, status := parseFrame(buf, off)
		switch status {
		case frameTorn:
			return off, false, nil
		case frameCorrupt:
			return 0, false, fmt.Errorf("wal: %s: corrupt record at offset %d ahead of intact history; refusing to drop acknowledged mutations", path, off)
		}
		prev, ver, ok := stamps(payload)
		if !ok {
			return 0, false, fmt.Errorf("wal: %s: checksummed record at offset %d has no version stamps", path, off)
		}
		cont, err := fn(prev, ver, buf[off:end])
		if err != nil {
			return 0, false, err
		}
		if !cont {
			return end, true, nil
		}
		off = end
	}
	return off, true, nil
}

// stamps reads a record payload's version stamps. It hands the Reader only
// the bytes two varints can occupy, so a scan that skips a record on its
// stamps never copies the payload.
func stamps(payload []byte) (prev, ver uint64, ok bool) {
	r := persist.NewReader(payload[:min(len(payload), 2*binary.MaxVarintLen64)])
	prev, ver = r.Uvarint(), r.Uvarint()
	return prev, ver, r.Err() == nil
}
