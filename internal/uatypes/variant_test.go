package uatypes

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/uastatus"
)

// variantBodies is one wire value of every built-in type, as it follows
// a Variant's encoding byte: the body of a scalar, and of each element
// of an array. The nested kinds (DataValue, Variant, DiagnosticInfo)
// are bytes a decoder has to walk to find their end.
func variantBodies() map[TypeID][]byte {
	w := func(fill func(e *Encoder)) []byte {
		e := NewEncoder(16)
		fill(e)
		return e.Bytes()
	}
	return map[TypeID][]byte{
		TypeBoolean: {1},
		TypeSByte:   {0xfd},
		TypeByte:    {200},
		TypeInt16:   w(func(e *Encoder) { e.WriteInt16(-1000) }),
		TypeUint16:  w(func(e *Encoder) { e.WriteUint16(50000) }),
		TypeInt32:   w(func(e *Encoder) { e.WriteInt32(-42) }),
		TypeUint32:  w(func(e *Encoder) { e.WriteUint32(42) }),
		TypeInt64:   w(func(e *Encoder) { e.WriteInt64(-1 << 40) }),
		TypeUint64:  w(func(e *Encoder) { e.WriteUint64(1 << 60) }),
		TypeFloat:   w(func(e *Encoder) { e.WriteFloat32(0.5) }),
		TypeDouble:  w(func(e *Encoder) { e.WriteFloat64(1.5) }),
		TypeString:  w(func(e *Encoder) { e.WriteString("m3InflowPerHour") }),
		TypeDateTime: w(func(e *Encoder) {
			e.WriteTime(time.Date(2020, 8, 30, 12, 0, 0, 0, time.UTC))
		}),
		TypeGuid: w(func(e *Encoder) {
			Guid{Data1: 0x12345678, Data2: 0x9abc, Data3: 0xdef0, Data4: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}.Encode(e)
		}),
		TypeByteString: w(func(e *Encoder) { e.WriteByteString([]byte{9, 8, 7}) }),
		TypeXMLElement: w(func(e *Encoder) { e.WriteString("<a/>") }),
		TypeNodeID:     w(func(e *Encoder) { NewStringNodeID(2, "n").Encode(e) }),
		TypeExpandedNodeID: w(func(e *Encoder) {
			ExpandedNodeID{NodeID: NewNumericNodeID(3, 70000), NamespaceURI: "urn:x", ServerIndex: 2}.Encode(e)
		}),
		TypeStatusCode:      w(func(e *Encoder) { e.WriteStatus(uastatus.BadNodeIdUnknown) }),
		TypeQualifiedName:   w(func(e *Encoder) { QualifiedName{NamespaceIndex: 1, Name: "q"}.Encode(e) }),
		TypeLocalizedText:   w(func(e *Encoder) { LocalizedText{Locale: "de", Text: "Füllstand"}.Encode(e) }),
		TypeExtensionObject: w(func(e *Encoder) { NewExtensionObject(321, []byte{1, 2, 3, 4}).Encode(e) }),
		TypeDataValue:       {0x01, byte(TypeInt32), 7, 0, 0, 0}, // a DataValue holding Int32 7
		TypeVariant:         w(func(e *Encoder) { StringArrayVariant([]string{"a", "b"}).Encode(e) }),
		TypeDiagnosticInfo:  {0x21, 5, 0, 0, 0, 0, 0, 0x35, 0x80}, // symbolic id 5, inner status
	}
}

// variantEncodings returns the encoding of a scalar and of a two-element
// array of every built-in type, plus the null Variant.
func variantEncodings() map[string][]byte {
	out := map[string][]byte{"null": {0}}
	for t, body := range variantBodies() {
		out[fmt.Sprintf("scalar %d", t)] = append([]byte{byte(t)}, body...)
		arr := []byte{byte(t) | variantArrayValues, 2, 0, 0, 0}
		out[fmt.Sprintf("array %d", t)] = append(append(arr, body...), body...)
	}
	return out
}

// reencode decodes b as one Variant and encodes it again.
func reencode(b []byte) ([]byte, error) {
	d := NewDecoder(b)
	v := DecodeVariant(d)
	if err := d.Close(); err != nil {
		return nil, err
	}
	e := NewEncoder(len(b))
	v.Encode(e)
	return e.Bytes(), nil
}

// TestVariantCodecFixedPoint: for every built-in type, scalar and array,
// decoding a Variant and encoding it again gives back the bytes it was
// decoded from, so encode → decode → encode is a fixed point. The
// nested kinds keep the bytes of what they hold.
func TestVariantCodecFixedPoint(t *testing.T) {
	encodings := variantEncodings()
	if len(encodings) != 1+2*int(TypeDiagnosticInfo) {
		t.Fatalf("%d encodings, want one scalar and one array per built-in type plus null", len(encodings))
	}
	for name, b := range encodings {
		got, err := reencode(b)
		if err != nil {
			t.Errorf("%s: decoding % x: %v", name, b, err)
			continue
		}
		if !bytes.Equal(got, b) {
			t.Errorf("%s: % x re-encodes as % x", name, b, got)
		}
	}
}

// FuzzVariantFixedPoint: whatever a Variant decodes from, its encoding
// decodes again, to a value that encodes to the same bytes.
func FuzzVariantFixedPoint(f *testing.F) {
	for _, b := range variantEncodings() {
		f.Add(b)
	}
	for _, b := range fuzzSeedCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		v := DecodeVariant(d)
		if d.Err() != nil {
			return
		}
		e := NewEncoder(len(data))
		v.Encode(e)
		once := e.Bytes()
		twice, err := reencode(once)
		if err != nil {
			t.Fatalf("% x: its encoding % x does not decode: %v", data, once, err)
		}
		if !bytes.Equal(twice, once) {
			t.Fatalf("% x: encodes as % x, then as % x", data, once, twice)
		}
	})
}
