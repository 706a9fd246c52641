package uatypes

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestIntegerRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.WriteBool(true)
	e.WriteBool(false)
	e.WriteUint8(0xAB)
	e.WriteSByte(-5)
	e.WriteUint16(0xBEEF)
	e.WriteInt16(-12345)
	e.WriteUint32(0xDEADBEEF)
	e.WriteInt32(-123456789)
	e.WriteUint64(0x0123456789ABCDEF)
	e.WriteInt64(-1234567890123456789)
	e.WriteFloat32(3.5)
	e.WriteFloat64(-2.25)

	d := NewDecoder(e.Bytes())
	if !d.ReadBool() || d.ReadBool() {
		t.Error("bool round trip failed")
	}
	if got := d.ReadUint8(); got != 0xAB {
		t.Errorf("uint8 = %#x", got)
	}
	if got := d.ReadSByte(); got != -5 {
		t.Errorf("sbyte = %d", got)
	}
	if got := d.ReadUint16(); got != 0xBEEF {
		t.Errorf("uint16 = %#x", got)
	}
	if got := d.ReadInt16(); got != -12345 {
		t.Errorf("int16 = %d", got)
	}
	if got := d.ReadUint32(); got != 0xDEADBEEF {
		t.Errorf("uint32 = %#x", got)
	}
	if got := d.ReadInt32(); got != -123456789 {
		t.Errorf("int32 = %d", got)
	}
	if got := d.ReadUint64(); got != 0x0123456789ABCDEF {
		t.Errorf("uint64 = %#x", got)
	}
	if got := d.ReadInt64(); got != -1234567890123456789 {
		t.Errorf("int64 = %d", got)
	}
	if got := d.ReadFloat32(); got != 3.5 {
		t.Errorf("float32 = %g", got)
	}
	if got := d.ReadFloat64(); got != -2.25 {
		t.Errorf("float64 = %g", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	e := NewEncoder(8)
	e.WriteUint32(0x01020304)
	want := []byte{0x04, 0x03, 0x02, 0x01}
	if !bytes.Equal(e.Bytes(), want) {
		t.Errorf("encoding = %x, want %x", e.Bytes(), want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"", "hello", "opc.tcp://host:4840/path", "ünïcødé 日本"}
	for _, s := range cases {
		e := NewEncoder(0)
		e.WriteString(s)
		d := NewDecoder(e.Bytes())
		if got := d.ReadString(); got != s {
			t.Errorf("string %q round-tripped to %q", s, got)
		}
		if err := d.Close(); err != nil {
			t.Errorf("Close after %q: %v", s, err)
		}
	}
}

func TestNullStringDecodesEmpty(t *testing.T) {
	e := NewEncoder(4)
	e.WriteNullString()
	d := NewDecoder(e.Bytes())
	if got := d.ReadString(); got != "" {
		t.Errorf("null string = %q", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestByteStringNilVsEmpty(t *testing.T) {
	e := NewEncoder(8)
	e.WriteByteString(nil)
	e.WriteByteString([]byte{})
	d := NewDecoder(e.Bytes())
	if got := d.ReadByteString(); got != nil {
		t.Errorf("nil bytestring = %v", got)
	}
	if got := d.ReadByteString(); got == nil || len(got) != 0 {
		t.Errorf("empty bytestring = %v", got)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.ReadUint32()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", d.Err())
	}
	// Sticky error: further reads keep the original error.
	_ = d.ReadUint64()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("sticky err = %v", d.Err())
	}
}

func TestDecoderStringLimit(t *testing.T) {
	e := NewEncoder(8)
	e.WriteInt32(MaxStringLength + 1)
	d := NewDecoder(e.Bytes())
	_ = d.ReadString()
	if !errors.Is(d.Err(), ErrLengthLimit) {
		t.Errorf("err = %v, want ErrLengthLimit", d.Err())
	}
}

func TestDecoderNegativeLengthRejected(t *testing.T) {
	e := NewEncoder(8)
	e.WriteInt32(-7)
	d := NewDecoder(e.Bytes())
	_ = d.ReadByteString()
	if !errors.Is(d.Err(), ErrInvalidData) {
		t.Errorf("err = %v, want ErrInvalidData", d.Err())
	}
}

func TestCloseReportsTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3, 4, 5})
	_ = d.ReadUint32()
	if err := d.Close(); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("Close = %v, want ErrTrailingBytes", err)
	}
}

func TestDateTimeEpoch(t *testing.T) {
	unix := time.Unix(0, 0).UTC()
	if ticks := TimeToDateTime(unix); ticks != 116444736000000000 {
		t.Errorf("unix epoch ticks = %d", ticks)
	}
	if got := DateTimeToTime(116444736000000000); !got.Equal(unix) {
		t.Errorf("epoch decode = %v", got)
	}
	if !DateTimeToTime(0).IsZero() {
		t.Error("tick 0 should map to zero time")
	}
	if TimeToDateTime(time.Time{}) != 0 {
		t.Error("zero time should map to tick 0")
	}
}

func TestDateTimeQuickRoundTrip(t *testing.T) {
	f := func(sec int64, nsub int32) bool {
		// Constrain to the window where UnixNano is valid (±292 years
		// around 1970) and to 100ns granularity.
		sec = sec % (1 << 33)
		ns := (int64(nsub) % 1e7) * 100
		if ns < 0 {
			ns = -ns
		}
		orig := time.Unix(sec, ns).UTC()
		got := DateTimeToTime(TimeToDateTime(orig))
		return got.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		e := NewEncoder(0)
		e.WriteString(s)
		d := NewDecoder(e.Bytes())
		got := d.ReadString()
		return got == s && d.Close() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickByteStringRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		e := NewEncoder(0)
		e.WriteByteString(b)
		d := NewDecoder(e.Bytes())
		got := d.ReadByteString()
		if b == nil {
			return got == nil
		}
		return bytes.Equal(got, b) && d.Close() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNumericRoundTrip(t *testing.T) {
	f := func(u32 uint32, i64 int64, f64 float64) bool {
		e := NewEncoder(0)
		e.WriteUint32(u32)
		e.WriteInt64(i64)
		e.WriteFloat64(f64)
		d := NewDecoder(e.Bytes())
		gu := d.ReadUint32()
		gi := d.ReadInt64()
		gf := d.ReadFloat64()
		if d.Close() != nil {
			return false
		}
		if gu != u32 || gi != i64 {
			return false
		}
		if math.IsNaN(f64) {
			return math.IsNaN(gf)
		}
		return gf == f64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodePrimitives(b *testing.B) {
	e := NewEncoder(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.WriteUint32(42)
		e.WriteString("opc.tcp://example:4840")
		e.WriteInt64(int64(i))
	}
}

func BenchmarkDecodePrimitives(b *testing.B) {
	e := NewEncoder(64)
	e.WriteUint32(42)
	e.WriteString("opc.tcp://example:4840")
	e.WriteInt64(7)
	raw := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw)
		_ = d.ReadUint32()
		_ = d.ReadString()
		_ = d.ReadInt64()
	}
}

// TestKnownIdentifiers: a decoder told the identifiers it will see
// returns those strings for string node ids and copies everything else,
// reading the same bytes to the same values and failing the same way.
func TestKnownIdentifiers(t *testing.T) {
	own := "Tank_1"
	known := func(ns uint16, id []byte) (string, bool) {
		if ns == 2 && string(id) == own {
			return own, true
		}
		return "", false
	}
	enc := func(ids ...NodeID) []byte {
		e := NewEncoder(64)
		for _, id := range ids {
			id.Encode(e)
		}
		return e.Bytes()
	}
	wire := enc(NewStringNodeID(2, "Tank_1"), NewStringNodeID(3, "Tank_1"), NewNumericNodeID(2, 7), NewStringNodeID(2, "Tank_2"))
	plain, told := NewDecoder(wire), NewDecoder(wire)
	told.Known = known
	for i := 0; i < 4; i++ {
		want, got := DecodeNodeID(plain), DecodeNodeID(told)
		if got != want {
			t.Fatalf("node id %d: %+v, want %+v", i, got, want)
		}
		if isOwn := got.Type == NodeIDTypeString && unsafe.StringData(got.Text) == unsafe.StringData(own); isOwn != (i == 0) {
			t.Errorf("node id %d (%v): the known string returned: %v", i, got, isOwn)
		}
	}
	if plain.Close() != nil || told.Close() != nil {
		t.Fatalf("trailing bytes or errors: %v, %v", plain.Close(), told.Close())
	}
	told.Reset(wire)
	if got := DecodeNodeID(told); unsafe.StringData(got.Text) != unsafe.StringData(own) {
		t.Error("Reset forgot the known identifiers")
	}
	// A cut identifier fails as it does without them.
	cut := wire[:len(enc(NewStringNodeID(2, "Tank_1")))-2]
	plain, told = NewDecoder(cut), NewDecoder(cut)
	told.Known = known
	DecodeNodeID(plain)
	DecodeNodeID(told)
	if plain.Err() == nil || told.Err() != plain.Err() || told.Offset() != plain.Offset() {
		t.Errorf("cut identifier: error %v at %d, want %v at %d", told.Err(), told.Offset(), plain.Err(), plain.Offset())
	}
}
