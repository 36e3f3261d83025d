package wal

import (
	"bytes"
	"testing"

	"domainnet/internal/table"
)

// FuzzDecodeRecord holds the record decoder and the one frame parser above
// it to the same bar as persist.FuzzLoad: corrupt WAL bytes — from a torn
// disk segment or a cut replication stream — must surface as errors, never
// panics. The in-buffer segment walk (parseFrame, as Open and Replay scan a
// segment) must stay inside the buffer, and the stream reader a follower
// uses (ReadFrame) must agree with frameAt frame by frame.
func FuzzDecodeRecord(f *testing.F) {
	rec := &Record{
		PrevVersion: 4, Version: 7,
		Remove: []string{"gone"},
		Add: []*table.Table{
			table.New("cars").AddColumn("make", "jaguar", "fiat"),
			table.New("cats").AddColumn("cat", "jaguar", "puma"),
		},
	}
	payload := encodeRecord(nil, rec)
	frame := appendFrame(nil, payload)
	f.Add(frame)
	f.Add(payload)
	f.Add([]byte{})
	flipped := bytes.Clone(frame)
	flipped[9] ^= 0x20
	f.Add(flipped)
	oversize := bytes.Clone(frame)
	oversize[3] |= 0x80 // length prefix far above maxFrameBytes
	f.Add(oversize)
	f.Add(append(bytes.Clone(flipped), frame...)) // bad CRC, then a valid frame
	f.Add(append(bytes.Clone(frame), 1, 2, 3))    // a valid frame, then a 3-byte tail

	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeRecord(data) //nolint:errcheck // must not panic
		for off := int64(0); off < int64(len(data)); {
			payload, end, status := parseFrame(data, off)
			if status != frameOK {
				break
			}
			if end <= off || end > int64(len(data)) {
				t.Fatalf("parseFrame at %d ended at %d of %d bytes", off, end, len(data))
			}
			DecodeRecord(payload) //nolint:errcheck // must not panic
			off = end
		}
		r := bytes.NewReader(data)
		for off := int64(0); ; {
			want, end, shape := frameAt(data, off)
			got, err := ReadFrame(r)
			if (shape == frameValid) != (err == nil) || !bytes.Equal(got, want) {
				t.Fatalf("at %d: frameAt = (%d bytes, shape %d), ReadFrame = (%d bytes, %v)",
					off, len(want), shape, len(got), err)
			}
			if err != nil {
				break
			}
			off = end
		}
	})
}
