// Package uatypes implements the OPC UA binary encoding of the built-in
// data types (OPC 10000-6 §5.2) used by the measurement study: integers,
// strings, byte strings, GUIDs, DateTime, NodeId/ExpandedNodeId,
// QualifiedName, LocalizedText, Variant, ExtensionObject, DataValue and
// DiagnosticInfo.
//
// Encoding is little-endian throughout. Strings and arrays carry an Int32
// length prefix where -1 denotes a null value.
package uatypes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Limits protect decoders against malicious or corrupt length prefixes.
const (
	// MaxStringLength is the longest String/ByteString the decoder accepts.
	MaxStringLength = 16 << 20 // 16 MiB
	// MaxArrayLength is the longest array the decoder accepts.
	MaxArrayLength = 1 << 20
)

// Errors returned by the decoder.
var (
	ErrShortBuffer   = errors.New("uatypes: buffer too short")
	ErrLengthLimit   = errors.New("uatypes: length exceeds limit")
	ErrInvalidData   = errors.New("uatypes: invalid data")
	ErrTrailingBytes = errors.New("uatypes: trailing bytes after decode")
)

// Encoder serializes values into a growable byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a pre-allocated buffer of the given
// capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The returned slice aliases the
// encoder's internal buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate shortens the buffer to n bytes; n must not exceed Len.
// The secure-channel layer uses it to replace an in-place plaintext
// suffix with its ciphertext.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// WriteBool encodes a Boolean as one byte.
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// WriteUint8 encodes a single byte.
func (e *Encoder) WriteUint8(v byte) { e.buf = append(e.buf, v) }

// WriteSByte encodes a signed byte.
func (e *Encoder) WriteSByte(v int8) { e.buf = append(e.buf, byte(v)) }

// WriteUint16 encodes a UInt16.
func (e *Encoder) WriteUint16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// WriteInt16 encodes an Int16.
func (e *Encoder) WriteInt16(v int16) { e.WriteUint16(uint16(v)) }

// WriteUint32 encodes a UInt32.
func (e *Encoder) WriteUint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// WriteInt32 encodes an Int32.
func (e *Encoder) WriteInt32(v int32) { e.WriteUint32(uint32(v)) }

// WriteUint64 encodes a UInt64.
func (e *Encoder) WriteUint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// WriteInt64 encodes an Int64.
func (e *Encoder) WriteInt64(v int64) { e.WriteUint64(uint64(v)) }

// WriteFloat32 encodes a Float.
func (e *Encoder) WriteFloat32(v float32) { e.WriteUint32(math.Float32bits(v)) }

// WriteFloat64 encodes a Double.
func (e *Encoder) WriteFloat64(v float64) { e.WriteUint64(math.Float64bits(v)) }

// WriteString encodes a String. The empty string encodes with length 0;
// use WriteNullString for a null string.
func (e *Encoder) WriteString(s string) {
	e.WriteInt32(int32(len(s)))
	e.buf = append(e.buf, s...)
}

// WriteNullString encodes a null String (length -1).
func (e *Encoder) WriteNullString() { e.WriteInt32(-1) }

// WriteByteString encodes a ByteString; nil encodes as null (-1).
func (e *Encoder) WriteByteString(b []byte) {
	if b == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteRaw appends raw bytes without a length prefix.
func (e *Encoder) WriteRaw(b []byte) { e.buf = append(e.buf, b...) }

// WriteRawString appends raw string bytes without a length prefix.
func (e *Encoder) WriteRawString(s string) { e.buf = append(e.buf, s...) }

// WriteTime encodes a DateTime as 100 ns ticks since 1601-01-01 UTC.
// The zero time encodes as 0.
func (e *Encoder) WriteTime(t time.Time) { e.WriteInt64(TimeToDateTime(t)) }

// Decoder deserializes values from a byte slice. Errors are sticky: after
// the first failure every further read returns the zero value and Err()
// reports the original error.
type Decoder struct {
	b   []byte
	off int
	err error
	// last is the string ReadString returned last, which a repeat is
	// returned as: a browse reference names its target thrice in a row.
	last string
	// Known, when set, gives the identifier of a string node id it knows
	// as its own string rather than a copy: a server knows its address
	// space, and the ids its clients send are the ones it listed.
	Known func(ns uint16, id []byte) (string, bool)
}

// NewDecoder returns a decoder reading from b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset makes d a fresh decoder reading from b, keeping Known, so a
// connection can keep one decoder for all its messages.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b, Known: d.Known} }

// readIdentifier reads the identifier of a string node id in namespace
// ns: what ReadString reads, Known's string when Known knows it.
func (d *Decoder) readIdentifier(ns uint16) string {
	if d.Known != nil && d.err == nil && d.Remaining() >= 4 {
		n := int(int32(binary.LittleEndian.Uint32(d.b[d.off:])))
		if n > 0 && n <= MaxStringLength && n <= d.Remaining()-4 {
			if s, ok := d.Known(ns, d.b[d.off+4:d.off+4+n]); ok {
				d.off += 4 + n
				return s
			}
		}
	}
	return d.ReadString()
}

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Offset returns the number of bytes consumed so far.
func (d *Decoder) Offset() int { return d.off }

// Close verifies that the decoder consumed the whole buffer without error.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, d.Remaining())
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail(ErrShortBuffer)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// ReadBool decodes a Boolean.
func (d *Decoder) ReadBool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// ReadUint8 decodes a single byte.
func (d *Decoder) ReadUint8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// ReadSByte decodes a signed byte.
func (d *Decoder) ReadSByte() int8 { return int8(d.ReadUint8()) }

// ReadUint16 decodes a UInt16.
func (d *Decoder) ReadUint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// ReadInt16 decodes an Int16.
func (d *Decoder) ReadInt16() int16 { return int16(d.ReadUint16()) }

// ReadUint32 decodes a UInt32.
func (d *Decoder) ReadUint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// ReadInt32 decodes an Int32.
func (d *Decoder) ReadInt32() int32 { return int32(d.ReadUint32()) }

// ReadUint64 decodes a UInt64.
func (d *Decoder) ReadUint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// ReadInt64 decodes an Int64.
func (d *Decoder) ReadInt64() int64 { return int64(d.ReadUint64()) }

// ReadFloat32 decodes a Float.
func (d *Decoder) ReadFloat32() float32 { return math.Float32frombits(d.ReadUint32()) }

// ReadFloat64 decodes a Double.
func (d *Decoder) ReadFloat64() float64 { return math.Float64frombits(d.ReadUint64()) }

// ReadString decodes a String. Null decodes as the empty string.
func (d *Decoder) ReadString() string {
	n := d.ReadInt32()
	if d.err != nil || n <= 0 {
		if n < -1 {
			d.fail(ErrInvalidData)
		}
		return ""
	}
	if n > MaxStringLength {
		d.fail(ErrLengthLimit)
		return ""
	}
	b := d.take(int(n))
	if string(b) != d.last {
		d.last = string(b)
	}
	return d.last
}

// ReadByteString decodes a ByteString. Null decodes as nil.
func (d *Decoder) ReadByteString() []byte {
	n := d.ReadInt32()
	if d.err != nil || n == -1 {
		return nil
	}
	if n < -1 {
		d.fail(ErrInvalidData)
		return nil
	}
	if n > MaxStringLength {
		d.fail(ErrLengthLimit)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ReadTime decodes a DateTime.
func (d *Decoder) ReadTime() time.Time { return DateTimeToTime(d.ReadInt64()) }

// ReadArrayLen decodes an array length prefix and validates it against
// MaxArrayLength. Null arrays (-1) return -1.
func (d *Decoder) ReadArrayLen() int {
	n := d.ReadInt32()
	if d.err != nil {
		return -1
	}
	if n < -1 {
		d.fail(ErrInvalidData)
		return -1
	}
	if n > MaxArrayLength {
		d.fail(ErrLengthLimit)
		return -1
	}
	// Every array element costs at least one wire byte, so a claimed
	// count beyond the remaining buffer can never decode; failing here
	// keeps the claim from sizing a preallocation (callers write
	// make([]T, 0, n)) — a few hostile bytes must not buy a
	// megabyte-scale allocation.
	if int(n) > d.Remaining() {
		d.fail(ErrShortBuffer)
		return -1
	}
	return int(n)
}

// ReadArrayLenOf decodes the length prefix of an array whose elements
// each occupy at least elemWire bytes on the wire, so that decoders can
// size the slice once (make([]T, 0, n)) instead of growing it by
// doubling. ReadArrayLen's one-byte-per-element bound lets a claim buy
// sizeof(T) bytes per input byte; here a claim the remaining bytes
// cannot back fails with ErrShortBuffer before anything is allocated,
// which caps the preallocation at Remaining()/elemWire elements —
// sizeof(T)/elemWire bytes per input byte. elemWire must be a true
// lower bound (≥ 1): the decode of a rejected claim could only have
// run out of buffer later.
//
//studyvet:hotpath — once per array on the browse/read decode path; TestArrayPreallocNotAmplified pins the bound
func (d *Decoder) ReadArrayLenOf(elemWire int) int {
	n := d.ReadArrayLen()
	if n > 0 && n > d.Remaining()/elemWire {
		d.fail(ErrShortBuffer)
		return -1
	}
	return n
}

// dateTimeEpochDelta is the number of 100ns ticks between the OPC UA
// epoch (1601-01-01) and the Unix epoch (1970-01-01).
const dateTimeEpochDelta = 116444736000000000

// TimeToDateTime converts a time.Time to OPC UA DateTime ticks.
// The zero time maps to 0.
func TimeToDateTime(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()/100 + dateTimeEpochDelta
}

// DateTimeToTime converts OPC UA DateTime ticks to a time.Time.
// Tick value 0 maps to the zero time.
func DateTimeToTime(ticks int64) time.Time {
	if ticks == 0 {
		return time.Time{}
	}
	return time.Unix(0, (ticks-dateTimeEpochDelta)*100).UTC()
}
