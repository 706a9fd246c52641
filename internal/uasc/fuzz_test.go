package uasc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/uamsg"
)

// FuzzReadRaw covers the frame reader that parses the very first bytes
// a hostile peer sends (DESIGN.md §9): whatever the header claims and
// whatever maxSize the caller negotiated, readRaw must not panic, must
// cap the allocation at absoluteMaxFrameSize, and must never return a
// body larger than the bytes actually received.
func FuzzReadRaw(f *testing.F) {
	valid := &bytes.Buffer{}
	if err := writeRaw(valid, "HEL", uamsg.ChunkFinal, []byte("hello body")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), uint32(0))
	f.Add(valid.Bytes(), uint32(4096))

	hostile := make([]byte, chunkHeaderSize)
	copy(hostile, "MSGF")
	binary.LittleEndian.PutUint32(hostile[4:], 0xfffffff0)
	f.Add(hostile, uint32(0))                         // oversize claim against the hard ceiling
	f.Add([]byte("OPNF\x04\x00\x00\x00"), uint32(64)) // size below header length
	f.Add([]byte{}, uint32(0))

	// A message chunk whose body claims a maximal array in a few bytes:
	// the shape the service decoders behind this reader must refuse.
	claim := uamsg.Encode(&uamsg.BrowseRequest{})
	binary.LittleEndian.PutUint32(claim[len(claim)-4:], 1<<20)
	framed := &bytes.Buffer{}
	if err := writeRaw(framed, "MSG", uamsg.ChunkFinal, claim); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes(), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, maxSize uint32) {
		c, err := readRaw(bytes.NewReader(data), maxSize, nil)
		if err != nil {
			return
		}
		if len(c.body)+chunkHeaderSize > len(data) {
			t.Errorf("body of %d bytes from %d input bytes", len(c.body), len(data))
		}
		limit := maxSize
		if limit == 0 || limit > absoluteMaxFrameSize {
			limit = absoluteMaxFrameSize
		}
		if uint32(len(c.body)+chunkHeaderSize) > limit {
			t.Errorf("frame of %d bytes exceeds limit %d", len(c.body)+chunkHeaderSize, limit)
		}
	})
}
