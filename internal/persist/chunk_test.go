package persist

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// chunkPayload builds a compressible test payload: repeated text with a
// counter, shaped like the codec bytes chunking exists for.
func chunkPayload(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("jaguar,puma,memphis,lima,")
	}
	return b.Bytes()[:n]
}

func readAllChunks(t *testing.T, stream []byte) ([]byte, int) {
	t.Helper()
	r := bytes.NewReader(stream)
	var raw []byte
	wire := 0
	for {
		chunk, w, err := ReadChunk(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		raw = append(raw, chunk...)
		wire += w
	}
	return raw, wire
}

func TestChunkRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, size := range []int{0, 1, 100, DefaultChunkBytes, DefaultChunkBytes + 1, 3*DefaultChunkBytes - 7} {
			payload := chunkPayload(size)
			var out bytes.Buffer
			wire, err := WriteChunked(&out, payload, 0, 0, compress)
			if err != nil {
				t.Fatalf("WriteChunked(size %d, compress %v): %v", size, compress, err)
			}
			if wire != int64(out.Len()) {
				t.Errorf("Wire = %d, stream has %d bytes", wire, out.Len())
			}
			got, gotWire := readAllChunks(t, out.Bytes())
			if !bytes.Equal(got, payload) {
				t.Fatalf("round trip of %d bytes (compress %v) corrupted the payload", size, compress)
			}
			if gotWire != out.Len() {
				t.Errorf("reader consumed %d wire bytes, stream has %d", gotWire, out.Len())
			}
			if compress && size >= 100 && int64(out.Len()) >= int64(size) {
				t.Errorf("compressed stream of %d repetitive bytes did not shrink (%d on the wire)", size, out.Len())
			}
		}
	}
}

func TestChunkResumeOffset(t *testing.T) {
	// A reader that accumulated the first two chunks resumes at their raw
	// size: the re-requested stream must contain exactly the remainder.
	payload := chunkPayload(1000)
	const chunk = 256
	var full bytes.Buffer
	if _, err := WriteChunked(&full, payload, 0, chunk, true); err != nil {
		t.Fatal(err)
	}
	resumeAt := 2 * chunk
	var rest bytes.Buffer
	if _, err := WriteChunked(&rest, payload, resumeAt, chunk, true); err != nil {
		t.Fatal(err)
	}
	got, _ := readAllChunks(t, rest.Bytes())
	if !bytes.Equal(got, payload[resumeAt:]) {
		t.Fatal("resumed stream does not continue from the requested raw offset")
	}
	// A stream framed whole resumes by slicing at the chunk's frame start.
	cs, err := FrameChunks(payload, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs.Wire, full.Bytes()) || !bytes.Equal(cs.Wire[cs.Starts[2]:], rest.Bytes()) ||
		len(cs.Starts) != 5 || cs.Starts[4] != len(cs.Wire) {
		t.Fatalf("FrameChunks starts %v over %d wire bytes disagree with WriteChunked", cs.Starts, len(cs.Wire))
	}
}

func TestChunkStoredFallback(t *testing.T) {
	// Incompressible (random-ish) payloads must be framed stored, not grown
	// by a futile gzip pass.
	payload := make([]byte, 4096)
	st := uint32(0x9e3779b9)
	for i := range payload {
		st = st*1664525 + 1013904223
		payload[i] = byte(st >> 24)
	}
	var out bytes.Buffer
	if _, err := WriteChunked(&out, payload, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	if out.Len() > len(payload)+16 {
		t.Errorf("incompressible chunk grew from %d to %d bytes on the wire", len(payload), out.Len())
	}
	got, _ := readAllChunks(t, out.Bytes())
	if !bytes.Equal(got, payload) {
		t.Fatal("stored-fallback round trip corrupted the payload")
	}
}

// frame builds one chunk frame by hand, with a correct CRC over payload, so
// tests can make the lengths lie while the checksum still passes.
func frame(flag byte, rawLen int, payload []byte) []byte {
	b := []byte{flag}
	b = binary.LittleEndian.AppendUint32(b, uint32(rawLen))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func gzipped(t testing.TB, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

type chunkDecoder func(io.Reader) ([]byte, int, error)

// chunkDecoders are the ways to decode a frame: the one-shot ReadChunk; the
// same readFrame and inflate with one inflater shared across every case
// (the "ChunkReader" row), so state a failed frame leaves in a reused
// decoder, as ReadChunk's pooled ones are, would show up in the next; and
// the parallel InflateFrames.
func chunkDecoders() []struct {
	name   string
	decode chunkDecoder
} {
	var in inflater
	return []struct {
		name   string
		decode chunkDecoder
	}{
		{"ReadChunk", ReadChunk},
		{"ChunkReader", func(r io.Reader) ([]byte, int, error) {
			f, wire, err := readFrame(r, nil)
			if err != nil {
				return nil, 0, err
			}
			raw := make([]byte, f.RawLen())
			if err := in.inflate(f, raw); err != nil {
				return nil, 0, err
			}
			return raw, wire, nil
		}},
		{"InflateFrames", func(r io.Reader) ([]byte, int, error) {
			f, wire, err := ReadFrame(r)
			if err != nil {
				return nil, 0, err
			}
			raw, err := inflateFrames([]Frame{f}, 2)
			return raw, wire, err
		}},
	}
}

func TestChunkCorruption(t *testing.T) {
	payload := chunkPayload(512)
	var out bytes.Buffer
	if _, err := WriteChunked(&out, payload, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	stream := out.Bytes()
	z := gzipped(t, payload)
	badTrailer := append([]byte(nil), z...)
	badTrailer[len(badTrailer)-8] ^= 0x01 // gzip's own CRC-32 of the raw bytes

	decoders := chunkDecoders()
	// each runs check once per decoder, as a subtest named after it.
	each := func(t *testing.T, check func(t *testing.T, readChunk chunkDecoder)) {
		for _, dec := range decoders {
			t.Run(dec.name, func(t *testing.T) { check(t, dec.decode) })
		}
	}

	t.Run("bit flip fails the checksum", func(t *testing.T) {
		bad := append([]byte(nil), stream...)
		bad[len(bad)/2] ^= 0x40
		each(t, func(t *testing.T, readChunk chunkDecoder) {
			if _, _, err := readChunk(bytes.NewReader(bad)); err == nil {
				t.Fatal("corrupted chunk decoded cleanly")
			}
		})
	})
	t.Run("truncation is an error, not EOF", func(t *testing.T) {
		// Clean end is the io.EOF identity; a torn frame must be anything
		// else (it may wrap io.EOF for context, but never equal it).
		each(t, func(t *testing.T, readChunk chunkDecoder) {
			for _, cut := range []int{1, 5, len(stream) / 2, len(stream) - 1} {
				_, _, err := readChunk(bytes.NewReader(stream[:cut]))
				if err == nil || err == io.EOF {
					t.Fatalf("chunk cut at %d bytes returned %v, want a descriptive error", cut, err)
				}
			}
		})
	})
	t.Run("clean end is io.EOF", func(t *testing.T) {
		each(t, func(t *testing.T, readChunk chunkDecoder) {
			if _, _, err := readChunk(bytes.NewReader(nil)); err != io.EOF {
				t.Fatalf("empty stream = %v, want io.EOF", err)
			}
		})
	})
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"lying length prefix fails without huge allocation", "truncated",
			[]byte{chunkStored, 0xff, 0xff, 0xff, 0x03, 0xff, 0xff, 0xff, 0x03, 'x'}},
		{"oversized claim is rejected", "limit",
			[]byte{chunkStored, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{"unknown flag is rejected", "flag", frame(7, 2, []byte("xy"))},
		{"stored lengths must agree", "disagree", frame(chunkStored, 3, []byte("xy"))},
		{"inflating past rawLen is detected", "inflated to", frame(chunkGzip, len(payload)-1, z)},
		{"a rawLen past deflate's reach is rejected", "deflate", frame(chunkGzip, 1033*len(z)+1, z)},
		{"inflating short of rawLen is detected", "inflated to", frame(chunkGzip, len(payload)+1, z)},
		{"gzip trailer checksum is verified", "checksum", frame(chunkGzip, len(payload), badTrailer)},
		{"gzip trailer must be present", "decompress", frame(chunkGzip, len(payload), z[:len(z)-8])},
		{"gzip trailer must be whole", "decompress", frame(chunkGzip, len(payload), z[:len(z)-3])},
		{"gzip header is verified", "decompress", frame(chunkGzip, 2, []byte("xy"))},
	} {
		t.Run(c.name, func(t *testing.T) {
			each(t, func(t *testing.T, readChunk chunkDecoder) {
				if _, _, err := readChunk(bytes.NewReader(c.frame)); err == nil ||
					!strings.Contains(err.Error(), c.want) {
					t.Fatalf("got %v, want an error mentioning %q", err, c.want)
				}
			})
		})
	}
	t.Run("a valid frame decodes after the failures", func(t *testing.T) {
		each(t, func(t *testing.T, readChunk chunkDecoder) {
			got, _, err := readChunk(bytes.NewReader(frame(chunkGzip, len(payload), z)))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("valid frame after corrupt ones: %v", err)
			}
		})
	})
}

func FuzzReadChunk(f *testing.F) {
	var seed bytes.Buffer
	WriteChunked(&seed, chunkPayload(300), 0, 128, true) //nolint:errcheck // corpus seeding
	f.Add(seed.Bytes())
	var stored bytes.Buffer
	WriteChunked(&stored, chunkPayload(50), 0, 0, false) //nolint:errcheck // corpus seeding
	f.Add(stored.Bytes())
	f.Add([]byte{chunkGzip, 4, 0, 0, 0, 2, 0, 0, 0, 'x', 'y', 0, 0, 0, 0})
	z := gzipped(f, chunkPayload(200))
	f.Add(slices.Concat(seed.Bytes(), frame(chunkGzip, 199, z), seed.Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder must never panic and never allocate unboundedly, no
		// matter the input; errors are the expected outcome for junk.
		// ReadChunk must agree frame by frame with ReadFrame followed by
		// InflateFrames over that one frame.
		one, framed := bytes.NewReader(data), bytes.NewReader(data)
		var seq []byte
		inflated := 0 // frames ReadChunk decoded
		for ; ; inflated++ {
			raw, wire, err := ReadChunk(one)
			fr, wire2, err2 := ReadFrame(framed)
			var raw2 []byte
			if err2 == nil {
				raw2, err2 = InflateFrames([]Frame{fr})
			}
			if err2 != nil {
				wire2 = 0 // ReadChunk reports no wire bytes on any error
			}
			if (err == nil) != (err2 == nil) || wire != wire2 || !bytes.Equal(raw, raw2) {
				t.Fatalf("ReadChunk = (%d bytes, %d, %v), ReadFrame+InflateFrames = (%d bytes, %d, %v)",
					len(raw), wire, err, len(raw2), wire2, err2)
			}
			if err != nil {
				break
			}
			seq = append(seq, raw...)
		}
		// The parallel inflater over the frames that read whole agrees with
		// that sequential decode: either every frame inflates and the buffer
		// is exactly what ReadChunk decoded, or one of them fails in both.
		frames := readFrames(data)
		par, err := inflateFrames(frames, 3)
		switch {
		case (err == nil) != (inflated == len(frames)):
			t.Fatalf("InflateFrames over %d frames = %v, ReadChunk decoded %d", len(frames), err, inflated)
		case err == nil && (!bytes.Equal(par, seq) || cap(par) != len(par)):
			t.Fatalf("InflateFrames = %d bytes (cap %d), ReadChunk = %d bytes", len(par), cap(par), len(seq))
		}
	})
}

// readFrames reads frames from stream until its end or its first bad frame.
func readFrames(stream []byte) []Frame {
	r := bytes.NewReader(stream)
	var frames []Frame
	for {
		f, _, err := ReadFrame(r)
		if err != nil {
			return frames
		}
		frames = append(frames, f)
	}
}

// mixedPayload is n bytes alternating compressible and incompressible runs,
// so a stream of it mixes gzip and stored frames.
func mixedPayload(n int) []byte {
	b := chunkPayload(n)
	st := uint32(0x9e3779b9)
	for i := range b {
		if (i/5000)%3 == 1 {
			st = st*1664525 + 1013904223
			b[i] = byte(st >> 24)
		}
	}
	return b
}

// TestFrameChunksParallelMatchesSequential: framing on any number of
// workers writes WriteChunked's gzip bytes, and Starts marks every frame.
func TestFrameChunksParallelMatchesSequential(t *testing.T) {
	workers := []int{1, 2, 3, max(4, runtime.GOMAXPROCS(0))}
	for _, size := range []int{0, 1, 4096, DefaultChunkBytes, 5*DefaultChunkBytes + 321} {
		payload := mixedPayload(size)
		for _, chunk := range []int{0, 700, 5000} {
			var want bytes.Buffer
			if _, err := WriteChunked(&want, payload, 0, chunk, true); err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				cs, err := frameChunks(payload, chunk, w)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cs.Wire, want.Bytes()) || cap(cs.Wire) != len(cs.Wire) {
					t.Fatalf("size %d, chunk %d, %d workers: %d wire bytes (cap %d) differ from WriteChunked's %d",
						size, chunk, w, len(cs.Wire), cap(cs.Wire), want.Len())
				}
				r := bytes.NewReader(cs.Wire)
				for k, at := range cs.Starts {
					if got := len(cs.Wire) - r.Len(); got != at {
						t.Fatalf("size %d, %d workers: frame %d starts at %d, Starts says %d", size, w, k, got, at)
					}
					if _, _, err := ReadFrame(r); err != nil && k < len(cs.Starts)-1 {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestInflateFramesExactBuffer: the inflated buffer is allocated once, at
// exactly the frames' summed raw length, on any number of workers.
func TestInflateFramesExactBuffer(t *testing.T) {
	payload := mixedPayload(7*1000 + 13)
	var stream bytes.Buffer
	if _, err := WriteChunked(&stream, payload, 0, 1000, true); err != nil {
		t.Fatal(err)
	}
	frames := readFrames(stream.Bytes())
	sum := 0
	for _, f := range frames {
		sum += f.RawLen()
	}
	if len(frames) != 8 || sum != len(payload) {
		t.Fatalf("read %d frames of %d raw bytes, want 8 of %d", len(frames), sum, len(payload))
	}
	for _, w := range []int{1, 2, 8} {
		raw, err := inflateFrames(frames, w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, payload) || cap(raw) != len(raw) {
			t.Fatalf("%d workers: inflated %d bytes (cap %d), want the %d-byte payload exactly", w, len(raw), cap(raw), len(payload))
		}
	}
	if raw, err := InflateFrames(nil); err != nil || len(raw) != 0 {
		t.Fatalf("no frames inflated to %d bytes, %v", len(raw), err)
	}
}

// TestInflateFramesFailsOnBadFrame: a CRC-valid frame that does not inflate,
// or inflates past its rawLen, fails the whole inflate wherever it sits, and
// the error is the first bad frame's in stream order whichever worker
// reaches it first.
func TestInflateFramesFailsOnBadFrame(t *testing.T) {
	payload := chunkPayload(6 * 1000)
	var stream bytes.Buffer
	if _, err := WriteChunked(&stream, payload, 0, 1000, true); err != nil {
		t.Fatal(err)
	}
	good := readFrames(stream.Bytes())
	z := gzipped(t, payload[:1000])
	garbled := slices.Clone(z)
	garbled[len(garbled)/2] ^= 0xff
	for _, c := range []struct {
		name, want string
		bad        []byte
	}{
		{"does not inflate", "decompress", frame(chunkGzip, 1000, garbled)},
		{"inflates past rawLen", "inflated to", frame(chunkGzip, 999, z)},
		{"inflates short of rawLen", "inflated to", frame(chunkGzip, 1001, z)},
	} {
		bad, _, err := ReadFrame(bytes.NewReader(c.bad))
		if err != nil {
			t.Fatalf("%s: the bad frame must pass its CRC: %v", c.name, err)
		}
		for k := range good {
			frames := slices.Clone(good)
			frames[k] = bad
			for _, w := range []int{1, 3} {
				raw, err := inflateFrames(frames, w)
				if err == nil || raw != nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s at frame %d, %d workers: got %d bytes, %v; want no bytes and an error mentioning %q",
						c.name, k, w, len(raw), err, c.want)
				}
			}
		}
		// Two bad frames: the first in stream order names the error.
		frames := slices.Clone(good)
		frames[1], frames[4] = bad, good[0]
		frames[4].rawLen = 7 // a stored-looking length the gzip payload overruns
		if _, err := inflateFrames(frames, 4); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s at frames 1 and 4: %v, want frame 1's error mentioning %q", c.name, err, c.want)
		}
	}
}

// BenchmarkFrameChunksSB frames the SB seed 1 snapshot as the leader does
// for each new version, gzip-compressed, at one worker and at GOMAXPROCS.
func BenchmarkFrameChunksSB(b *testing.B) {
	buf := sbSnapshot()
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := frameChunks(buf, 0, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInflateFramesSB inflates the SB seed 1 snapshot's gzip frames as
// a joining follower does, at one worker and at GOMAXPROCS.
func BenchmarkInflateFramesSB(b *testing.B) {
	cs, err := FrameChunks(sbSnapshot(), 0)
	if err != nil {
		b.Fatal(err)
	}
	frames := readFrames(cs.Wire)
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(cs.Starts[len(cs.Starts)-1]))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := inflateFrames(frames, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
