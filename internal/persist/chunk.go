package persist

// Chunked snapshot framing. The replication leader streams a marshaled
// snapshot to bootstrapping followers as a sequence of independently
// CRC-checked, independently compressed chunks, so a follower whose stream
// dies mid-transfer can resume from the last fully received chunk instead of
// re-downloading the whole snapshot — and so the bytes on the wire shrink by
// the codec's gzip ratio without giving up resumability (one gzip stream
// over the whole body would tie every byte to the stream state before it).
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
// that has accumulated N raw bytes of whole chunks can hand N back to the
// leader and receive exactly the frames it is missing.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// DefaultChunkBytes is the raw size the leader cuts snapshot chunks at. Big
// enough that per-chunk gzip headers and CRC trailers are noise, small
// enough that a dropped connection wastes at most one chunk of progress.
const DefaultChunkBytes = 256 << 10

// maxChunkBytes bounds both lengths a chunk header may claim, so a corrupt
// or hostile header cannot make the reader allocate gigabytes before the
// CRC check has a chance to fail.
const maxChunkBytes = 64 << 20

const (
	chunkStored = 0
	chunkGzip   = 1
)

// ChunkWriter frames raw byte runs into chunk frames on w, optionally
// gzip-compressing each payload (falling back to stored when compression
// does not shrink the chunk). It reuses one gzip encoder and one scratch
// buffer across chunks. Wire accumulates the framed bytes actually written,
// which the bench emitter compares against the raw snapshot size.
type ChunkWriter struct {
	w    io.Writer
	gz   *gzip.Writer
	buf  bytes.Buffer
	head []byte
	// Wire counts bytes written to w, frames included.
	Wire int64
}

// NewChunkWriter returns a ChunkWriter over w.
func NewChunkWriter(w io.Writer) *ChunkWriter {
	return &ChunkWriter{w: w}
}

// WriteChunk frames one raw chunk, gzip-compressed when compress is set and
// compression actually shrinks it. raw must not exceed maxChunkBytes.
func (cw *ChunkWriter) WriteChunk(raw []byte, compress bool) error {
	if len(raw) > maxChunkBytes {
		return fmt.Errorf("persist: chunk of %d bytes exceeds limit %d", len(raw), maxChunkBytes)
	}
	flag := byte(chunkStored)
	payload := raw
	if compress && len(raw) > 0 {
		cw.buf.Reset()
		if cw.gz == nil {
			cw.gz = gzip.NewWriter(&cw.buf)
		} else {
			cw.gz.Reset(&cw.buf)
		}
		if _, err := cw.gz.Write(raw); err != nil {
			return fmt.Errorf("persist: chunk compress: %w", err)
		}
		if err := cw.gz.Close(); err != nil {
			return fmt.Errorf("persist: chunk compress: %w", err)
		}
		if cw.buf.Len() < len(raw) {
			flag = chunkGzip
			payload = cw.buf.Bytes()
		}
	}
	h := cw.head[:0]
	h = append(h, flag)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(raw)))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(payload)))
	cw.head = h
	if _, err := cw.w.Write(h); err != nil {
		return err
	}
	if _, err := cw.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := cw.w.Write(crc[:]); err != nil {
		return err
	}
	cw.Wire += int64(len(h) + len(payload) + 4)
	return nil
}

// WriteChunked cuts buf into chunkBytes-sized chunks (DefaultChunkBytes when
// non-positive) starting at raw offset from, and frames each onto w. It
// returns the framed byte count. The leader's snapshot handler serves these
// bytes from a cached FrameChunks stream.
func WriteChunked(w io.Writer, buf []byte, from int, chunkBytes int, compress bool) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	cw := NewChunkWriter(w)
	for off := from; off < len(buf); off += chunkBytes {
		end := min(off+chunkBytes, len(buf))
		if err := cw.WriteChunk(buf[off:end], compress); err != nil {
			return cw.Wire, err
		}
	}
	return cw.Wire, nil
}

// ChunkStream is a buffer framed whole, exactly as WriteChunked writes it
// from offset zero: the exact-size wire bytes, and where each chunk's frame
// starts in them plus a final len(Wire), so the frames from raw offset
// k*chunkBytes onward are Wire[Starts[k]:].
type ChunkStream struct {
	Wire   []byte
	Starts []int
}

// FrameChunks frames all of buf into a ChunkStream, cut as WriteChunked is.
func FrameChunks(buf []byte, chunkBytes int, compress bool) (*ChunkStream, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	var out bytes.Buffer
	cw := NewChunkWriter(&out)
	starts := make([]int, 0, len(buf)/chunkBytes+2)
	for off := 0; off < len(buf); off += chunkBytes {
		starts = append(starts, out.Len())
		if err := cw.WriteChunk(buf[off:min(off+chunkBytes, len(buf))], compress); err != nil {
			return nil, err
		}
	}
	return &ChunkStream{Wire: bytes.Clone(out.Bytes()), Starts: append(starts, out.Len())}, nil
}

// ReadChunk reads one chunk frame from r, verifies its CRC, and returns the
// decoded raw payload plus the number of wire bytes the frame occupied. A
// clean end of stream (no bytes at all) returns io.EOF; a frame cut short or
// failing its checksum returns a descriptive error — the resume signal.
func ReadChunk(r io.Reader) (raw []byte, wire int, err error) {
	var cr ChunkReader
	return cr.AppendChunk(nil, r)
}

// ChunkReader decodes chunk frames, reusing one gzip decoder and one
// payload buffer across chunks. The zero value is ready to use.
type ChunkReader struct {
	gz   gzip.Reader
	src  bytes.Reader
	body bytes.Buffer
}

// AppendChunk reads and verifies one chunk frame from r like ReadChunk and
// inflates its raw bytes straight onto the end of dst. Any error, io.EOF at
// a clean end of stream included, returns dst at its original length.
func (cr *ChunkReader) AppendChunk(dst []byte, r io.Reader) (out []byte, wire int, err error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		if err == io.EOF {
			return dst, 0, io.EOF
		}
		return dst, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	flag := head[0]
	if flag != chunkStored && flag != chunkGzip {
		return dst, 0, fmt.Errorf("persist: unknown chunk flag %d", flag)
	}
	if _, err := io.ReadFull(r, head[1:]); err != nil {
		return dst, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	rawLen := binary.LittleEndian.Uint32(head[1:5])
	encLen := binary.LittleEndian.Uint32(head[5:9])
	if rawLen > maxChunkBytes || encLen > maxChunkBytes {
		return dst, 0, fmt.Errorf("persist: chunk lengths %d/%d exceed limit %d", rawLen, encLen, maxChunkBytes)
	}
	// Grow with the bytes that actually arrive rather than trusting the
	// length prefix: a lying prefix on a short stream must fail after
	// reading what exists, not allocate tens of megabytes first.
	cr.body.Reset()
	if _, err := io.CopyN(&cr.body, r, int64(encLen)+4); err != nil {
		return dst, 0, fmt.Errorf("persist: truncated chunk body: %w", err)
	}
	buf := cr.body.Bytes()
	payload, crc := buf[:encLen], binary.LittleEndian.Uint32(buf[encLen:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return dst, 0, fmt.Errorf("persist: chunk checksum mismatch")
	}
	wire = 9 + int(encLen) + 4
	if flag == chunkStored {
		if rawLen != encLen {
			return dst, 0, fmt.Errorf("persist: stored chunk lengths disagree (%d raw, %d encoded)", rawLen, encLen)
		}
		return append(dst, payload...), wire, nil
	}
	cr.src.Reset(payload)
	if err := cr.gz.Reset(&cr.src); err != nil {
		return dst, 0, fmt.Errorf("persist: chunk decompress: %w", err)
	}
	// Read rawLen bytes, then one more: gzip checks its trailer (CRC-32 and
	// size) only on reaching EOF, so only a clean io.EOF right after rawLen
	// bytes shows the payload whole, and a payload inflating past rawLen
	// must not be silently cut.
	out = slices.Grow(dst, int(rawLen))
	n, err := io.ReadFull(&cr.gz, out[len(dst):len(dst)+int(rawLen)])
	if err == nil {
		var past [1]byte
		var extra int
		extra, err = io.ReadFull(&cr.gz, past[:])
		n += extra
	}
	if n != int(rawLen) {
		return dst, 0, fmt.Errorf("persist: chunk inflated to %d bytes, header claims %d", n, rawLen)
	}
	if err != io.EOF {
		return dst, 0, fmt.Errorf("persist: chunk decompress: %w", err)
	}
	return out[:len(dst)+n], wire, nil
}
