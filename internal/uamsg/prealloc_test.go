package uamsg

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/uatypes"
)

// hostileArray is one decoder that sizes a slice from a claimed array
// length: the message prefix up to (not including) the length prefix,
// what one element costs on the wire at least and in memory, and the
// stated bound on what a message may make the decoder allocate, as a
// multiple of the message's own length.
type hostileArray struct {
	name     string
	prefix   []byte
	elemWire int
	elemSize uintptr
	multiple int
}

// hostileArrays lists every decoder on the browse/read path that
// preallocates through Decoder.ReadArrayLenOf.
func hostileArrays() []hostileArray {
	// An encoded message ends with its (null) array fields; cutting
	// them off leaves the prefix a claim is appended to.
	cut := func(m Message, tail int) []byte {
		b := Encode(m)
		return b[:len(b)-tail]
	}
	// BrowseResponse with one result whose reference array is claimed.
	result := uatypes.NewEncoder(64)
	result.WriteRaw(cut(&BrowseResponse{}, 8))
	result.WriteInt32(1)  // one result
	result.WriteUint32(0) // status Good
	result.WriteInt32(-1) // no continuation point
	return []hostileArray{
		{"BrowseRequest.NodesToBrowse", cut(&BrowseRequest{}, 4),
			minBrowseDescriptionWire, unsafe.Sizeof(BrowseDescription{}), 10},
		{"ReadRequest.NodesToRead", cut(&ReadRequest{}, 4),
			minReadValueIDWire, unsafe.Sizeof(ReadValueID{}), 8},
		{"BrowseResponse.Results", cut(&BrowseResponse{}, 8),
			minBrowseResultWire, unsafe.Sizeof(BrowseResult{}), 6},
		{"BrowseResult.References", result.Bytes(),
			minReferenceDescriptionWire, unsafe.Sizeof(ReferenceDescription{}), 19},
		{"ReadResponse.Results", cut(&ReadResponse{}, 8),
			minDataValueWire, unsafe.Sizeof(uatypes.DataValue{}), 34},
	}
}

// message returns the prefix, an array claim of n elements, and zero
// bytes up to total length (zero bytes decode as all-null elements, so
// a claim the bytes can back decodes all the way).
func (h hostileArray) message(n, total int) []byte {
	b := make([]byte, total)
	copy(b, h.prefix)
	binary.LittleEndian.PutUint32(b[len(h.prefix):], uint32(n))
	return b
}

// decodeCost decodes msg and reports the error and the bytes and
// objects the decode allocated.
func decodeCost(msg []byte) (err error, bytes uint64, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decode(msg)
	runtime.ReadMemStats(&after)
	objects = testing.AllocsPerRun(3, func() { _, _ = Decode(msg) })
	return err, after.TotalAlloc - before.TotalAlloc, objects
}

// TestArrayPreallocNotAmplified is the amplification gate of the
// decoders that size their slice once from the validated length: a
// message of 64 KiB claiming more elements than its bytes can hold —
// the maximum array length, or one more than fits — fails with
// ErrShortBuffer having allocated next to nothing, and one claiming
// exactly as many as fit allocates no more than the stated multiple of
// its own length.
func TestArrayPreallocNotAmplified(t *testing.T) {
	const total = 64 << 10
	for _, h := range hostileArrays() {
		if int(h.elemSize)/h.elemWire >= h.multiple {
			t.Errorf("%s: stated multiple %d does not cover sizeof/wire = %d/%d",
				h.name, h.multiple, h.elemSize, h.elemWire)
		}
		fits := (total - len(h.prefix) - 4) / h.elemWire
		for _, claim := range []int{uatypes.MaxArrayLength, fits + 1} {
			err, bytes, objects := decodeCost(h.message(claim, total))
			if !errors.Is(err, uatypes.ErrShortBuffer) {
				t.Errorf("%s: claim of %d in %d bytes: error %v, want ErrShortBuffer", h.name, claim, total, err)
			}
			if bytes > 4<<10 || objects > 16 {
				t.Errorf("%s: rejected claim of %d allocated %d bytes in %.0f objects", h.name, claim, bytes, objects)
			}
		}
		_, bytes, _ := decodeCost(h.message(fits, total))
		if limit := uint64(h.multiple * total); bytes > limit {
			t.Errorf("%s: claim of %d (all that fit) allocated %d bytes, over %d× the %d-byte message",
				h.name, fits, bytes, h.multiple, total)
		}
		if bytes < uint64(fits)*uint64(h.elemSize) {
			t.Errorf("%s: claim of %d allocated %d bytes: the slice was not sized from it", h.name, fits, bytes)
		}
	}
}
