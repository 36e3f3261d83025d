package persist

// Chunked snapshot framing. The replication leader streams a marshaled
// snapshot to bootstrapping followers as a sequence of independently
// CRC-checked, independently compressed chunks, so a follower whose stream
// dies mid-transfer can resume from the last fully received chunk instead of
// re-downloading the whole snapshot — and so the bytes on the wire shrink by
// the codec's gzip ratio without giving up resumability (one gzip stream
// over the whole body would tie every byte to the stream state before it).
// Because every frame is its own gzip member with its own CRC, frames are
// also compressed and inflated independently, on every core: FrameChunks
// compresses a snapshot's chunks on engine workers, and InflateFrames
// inflates received frames in parallel into one buffer of exactly their raw
// size.
//
// Chunk frame layout:
//
//	byte    flag       0 = stored, 1 = gzip
//	uint32  rawLen     chunk size before compression
//	uint32  encLen     bytes that follow (== rawLen when stored)
//	[]byte  payload    encLen bytes
//	uint32  crc        CRC-32 (IEEE) of payload as transmitted
//
// Offsets in the resume protocol are raw (uncompressed) snapshot offsets:
// the writer cuts chunks at fixed DefaultChunkBytes boundaries, so a reader
// that holds N raw bytes of whole frames can hand N back to the leader and
// receive exactly the frames it is missing. A resume therefore keeps every
// whole frame and loses at most the one chunk that was torn.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"domainnet/internal/engine"
)

// DefaultChunkBytes is the raw size the leader cuts snapshot chunks at:
// 64 KiB. Per-frame gzip headers, trailers and CRCs stay noise at that size
// (the SB seed 1 snapshot compresses 2.05x, against 2.08x at 256 KiB), a
// dropped connection wastes at most 64 KiB of progress, and a snapshot of a
// few hundred KB splits into enough chunks (SB seed 1: 5) to keep every core
// busy compressing on the leader and inflating on a joining follower.
const DefaultChunkBytes = 64 << 10

// maxChunkBytes bounds both lengths a chunk header may claim, so a corrupt
// or hostile header cannot make the reader allocate gigabytes before the
// CRC check has a chance to fail.
const maxChunkBytes = 64 << 20

// maxInflateRatio bounds how far deflate can expand its input (a 258-byte
// match per two bits), so a gzip frame claiming more raw bytes than its
// payload could ever inflate to is rejected before any buffer is sized for
// it.
const maxInflateRatio = 1032

// readStep bounds how far a frame's payload buffer grows ahead of the bytes
// that have arrived, so a length prefix that lies on a short stream fails
// after reading what exists, not after allocating what it claims.
const readStep = 1 << 20

const (
	chunkStored = 0
	chunkGzip   = 1
)

// frameOverhead is the frame's header and CRC trailer around its payload.
const frameOverhead = 9 + 4

// gzipWriters pools the leader's gzip encoders: each holds several hundred
// KiB of deflate state, and every snapshot version is framed anew.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// inflaters pools the follower's gzip decoders.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// chunkEncoder compresses chunks one at a time with a pooled gzip writer,
// taken on first use and returned by release.
type chunkEncoder struct {
	gz  *gzip.Writer
	buf bytes.Buffer
}

// encode returns raw's frame flag and payload: its gzip stream when compress
// is set and the stream is smaller than raw, else raw itself, stored. A gzip
// payload aliases the encoder's scratch until the next call.
func (e *chunkEncoder) encode(raw []byte, compress bool) (byte, []byte, error) {
	if len(raw) > maxChunkBytes {
		return 0, nil, fmt.Errorf("persist: chunk of %d bytes exceeds limit %d", len(raw), maxChunkBytes)
	}
	if !compress || len(raw) == 0 {
		return chunkStored, raw, nil
	}
	if e.gz == nil {
		e.gz = gzipWriters.Get().(*gzip.Writer)
	}
	e.buf.Reset()
	e.gz.Reset(&e.buf)
	if _, err := e.gz.Write(raw); err != nil {
		return 0, nil, fmt.Errorf("persist: chunk compress: %w", err)
	}
	if err := e.gz.Close(); err != nil {
		return 0, nil, fmt.Errorf("persist: chunk compress: %w", err)
	}
	if e.buf.Len() >= len(raw) {
		return chunkStored, raw, nil
	}
	return chunkGzip, e.buf.Bytes(), nil
}

// release returns the encoder's gzip writer to the pool.
func (e *chunkEncoder) release() {
	if e.gz != nil {
		e.gz.Reset(nil) // drop the reference to the scratch buffer
		gzipWriters.Put(e.gz)
		e.gz = nil
	}
}

// appendFrame appends one whole frame of payload to dst.
func appendFrame(dst []byte, flag byte, rawLen int, payload []byte) []byte {
	dst = append(dst, flag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rawLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// WriteChunked cuts buf into chunkBytes-sized chunks (DefaultChunkBytes when
// non-positive) starting at raw offset from, and frames each onto w, one
// chunk at a time, gzip-compressed when compress is set and compression
// shrinks the chunk. It returns the framed byte count. With compress set it
// is the sequential reference for FrameChunks, whose bytes are the same.
func WriteChunked(w io.Writer, buf []byte, from int, chunkBytes int, compress bool) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	var enc chunkEncoder
	defer enc.release()
	var frame []byte
	var wire int64
	for off := from; off < len(buf); off += chunkBytes {
		raw := buf[off:min(off+chunkBytes, len(buf))]
		flag, payload, err := enc.encode(raw, compress)
		if err != nil {
			return wire, err
		}
		frame = appendFrame(frame[:0], flag, len(raw), payload)
		if _, err := w.Write(frame); err != nil {
			return wire, err
		}
		wire += int64(len(frame))
	}
	return wire, nil
}

// ChunkStream is a buffer framed whole, exactly as WriteChunked writes it
// from offset zero: the exact-size wire bytes, and where each chunk's frame
// starts in them plus a final len(Wire), so the frames from raw offset
// k*chunkBytes onward are Wire[Starts[k]:].
type ChunkStream struct {
	Wire   []byte
	Starts []int
}

// FrameChunks frames all of buf into a ChunkStream, cut as WriteChunked is
// and byte for byte equal to its gzip output: each chunk is gzipped, or
// stored when gzip does not shrink it. The chunks are compressed on
// GOMAXPROCS engine workers, each with a pooled gzip writer.
func FrameChunks(buf []byte, chunkBytes int) (*ChunkStream, error) {
	return frameChunks(buf, chunkBytes, 0)
}

// frameChunks is FrameChunks on the given number of workers (0: GOMAXPROCS).
func frameChunks(buf []byte, chunkBytes int, workers int) (*ChunkStream, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	n := (len(buf) + chunkBytes - 1) / chunkBytes
	encs := make([]chunkEncoder, engine.Opts{Workers: workers}.EffectiveWorkers(n))
	frames := make([][]byte, n)
	errs := make([]error, n)
	engine.Each(len(encs), n, func(w, k int) {
		raw := buf[k*chunkBytes : min((k+1)*chunkBytes, len(buf))]
		flag, payload, err := encs[w].encode(raw, true)
		if err != nil {
			errs[k] = err
			return
		}
		frames[k] = appendFrame(make([]byte, 0, frameOverhead+len(payload)), flag, len(raw), payload)
	})
	for i := range encs {
		encs[i].release()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	starts := make([]int, n+1)
	for k, f := range frames {
		starts[k+1] = starts[k] + len(f)
	}
	wire := make([]byte, 0, starts[n])
	for _, f := range frames {
		wire = append(wire, f...)
	}
	return &ChunkStream{Wire: wire, Starts: starts}, nil
}

// Frame is one chunk frame as read off the wire: its CRC verified and its
// header checked, its payload not yet inflated.
type Frame struct {
	gzip    bool
	rawLen  int
	payload []byte
}

// RawLen is the number of snapshot bytes the frame inflates to.
func (f Frame) RawLen() int { return f.rawLen }

// ReadFrame reads one chunk frame from r and verifies its CRC, without
// inflating it; the frame owns its payload. It returns the wire bytes the
// frame occupied. A clean end of stream (no bytes at all) returns io.EOF; a
// frame cut short, failing its checksum or with an impossible header
// returns a descriptive error — the resume signal.
func ReadFrame(r io.Reader) (Frame, int, error) {
	return readFrame(r, nil)
}

// readFrame is ReadFrame reading the payload into buf's spare capacity,
// grown only as bytes arrive. It is the one parser of the frame header.
func readFrame(r io.Reader, buf []byte) (Frame, int, error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		if err == io.EOF {
			return Frame{}, 0, io.EOF
		}
		return Frame{}, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	flag := head[0]
	if flag != chunkStored && flag != chunkGzip {
		return Frame{}, 0, fmt.Errorf("persist: unknown chunk flag %d", flag)
	}
	if _, err := io.ReadFull(r, head[1:]); err != nil {
		return Frame{}, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	rawLen := binary.LittleEndian.Uint32(head[1:5])
	encLen := binary.LittleEndian.Uint32(head[5:9])
	if rawLen > maxChunkBytes || encLen > maxChunkBytes {
		return Frame{}, 0, fmt.Errorf("persist: chunk lengths %d/%d exceed limit %d", rawLen, encLen, maxChunkBytes)
	}
	body, err := readGrow(buf, r, int(encLen)+4)
	if err != nil {
		return Frame{}, 0, fmt.Errorf("persist: truncated chunk body: %w", err)
	}
	payload, crc := body[:encLen], binary.LittleEndian.Uint32(body[encLen:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return Frame{}, 0, fmt.Errorf("persist: chunk checksum mismatch")
	}
	switch {
	case flag == chunkStored && rawLen != encLen:
		return Frame{}, 0, fmt.Errorf("persist: stored chunk lengths disagree (%d raw, %d encoded)", rawLen, encLen)
	case flag == chunkGzip && uint64(rawLen) > maxInflateRatio*uint64(encLen):
		return Frame{}, 0, fmt.Errorf("persist: gzip chunk of %d bytes claims %d raw bytes, past deflate's limit", encLen, rawLen)
	}
	return Frame{gzip: flag == chunkGzip, rawLen: int(rawLen), payload: payload}, frameOverhead + int(encLen), nil
}

// readGrow appends exactly n bytes of r to buf, growing buf by at most
// readStep (or its own length) beyond the bytes read so far.
func readGrow(buf []byte, r io.Reader, n int) ([]byte, error) {
	for end := len(buf) + n; len(buf) < end; {
		next := min(end, len(buf)+max(len(buf), readStep))
		buf = slices.Grow(buf, next-len(buf))
		m, err := io.ReadFull(r, buf[len(buf):next])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// inflater is one reusable gzip decoder.
type inflater struct {
	gz  gzip.Reader
	src bytes.Reader
}

// inflate writes f's raw bytes into dst, which is exactly f.RawLen() long.
func (in *inflater) inflate(f Frame, dst []byte) error {
	if !f.gzip {
		copy(dst, f.payload)
		return nil
	}
	in.src.Reset(f.payload)
	if err := in.gz.Reset(&in.src); err != nil {
		return fmt.Errorf("persist: chunk decompress: %w", err)
	}
	// Read rawLen bytes, then one more: gzip checks its trailer (CRC-32 and
	// size) only on reaching EOF, so only a clean io.EOF right after rawLen
	// bytes shows the payload whole, and a payload inflating past rawLen
	// must not be silently cut.
	n, err := io.ReadFull(&in.gz, dst)
	if err == nil {
		var past [1]byte
		var extra int
		extra, err = io.ReadFull(&in.gz, past[:])
		n += extra
	}
	if n != len(dst) {
		return fmt.Errorf("persist: chunk inflated to %d bytes, header claims %d", n, len(dst))
	}
	if err != io.EOF {
		return fmt.Errorf("persist: chunk decompress: %w", err)
	}
	return nil
}

// InflateFrames inflates frames, in order, into one buffer of exactly their
// summed raw length, allocated once. GOMAXPROCS workers share the frames,
// each taking the next one as it finishes the last, each into its own place
// in the buffer. A frame that does not inflate to exactly its raw length
// fails the call: the error of the first such frame in stream order is
// returned, and no buffer.
func InflateFrames(frames []Frame) ([]byte, error) {
	return inflateFrames(frames, 0)
}

// inflateFrames is InflateFrames on the given number of workers (0:
// GOMAXPROCS).
func inflateFrames(frames []Frame, workers int) ([]byte, error) {
	offs := make([]int, len(frames)+1)
	for i, f := range frames {
		offs[i+1] = offs[i] + f.rawLen
	}
	out := make([]byte, offs[len(frames)])
	errs := make([]error, len(frames))
	ins := make([]*inflater, engine.Opts{Workers: workers}.EffectiveWorkers(len(frames)))
	engine.Each(len(ins), len(frames), func(w, i int) {
		if ins[w] == nil {
			ins[w] = inflaters.Get().(*inflater)
		}
		errs[i] = ins[w].inflate(frames[i], out[offs[i]:offs[i+1]])
	})
	for _, in := range ins {
		if in != nil {
			in.src.Reset(nil) // drop the reference to the last payload
			inflaters.Put(in)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadChunk reads one chunk frame from r, verifies its CRC, and returns the
// decoded raw payload plus the number of wire bytes the frame occupied. A
// clean end of stream (no bytes at all) returns io.EOF; a frame cut short or
// failing its checksum returns a descriptive error — the resume signal.
func ReadChunk(r io.Reader) (raw []byte, wire int, err error) {
	f, wire, err := readFrame(r, nil)
	if err != nil {
		return nil, 0, err
	}
	raw = make([]byte, f.rawLen)
	in := inflaters.Get().(*inflater)
	err = in.inflate(f, raw)
	in.src.Reset(nil) // drop the reference to the payload
	inflaters.Put(in)
	if err != nil {
		return nil, 0, err
	}
	return raw, wire, nil
}
