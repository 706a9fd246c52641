package uatypes

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/uastatus"
)

func roundTripNodeID(t *testing.T, n NodeID) NodeID {
	t.Helper()
	e := NewEncoder(0)
	n.Encode(e)
	d := NewDecoder(e.Bytes())
	got := DecodeNodeID(d)
	if err := d.Close(); err != nil {
		t.Fatalf("NodeID %v: %v", n, err)
	}
	return got
}

func TestNodeIDNumericCompactEncodings(t *testing.T) {
	cases := []struct {
		id       NodeID
		wireSize int
	}{
		{NewNumericNodeID(0, 85), 2},      // two-byte
		{NewNumericNodeID(3, 1024), 4},    // four-byte
		{NewNumericNodeID(300, 70000), 7}, // full numeric
	}
	for _, c := range cases {
		e := NewEncoder(0)
		c.id.Encode(e)
		if e.Len() != c.wireSize {
			t.Errorf("%v encoded to %d bytes, want %d", c.id, e.Len(), c.wireSize)
		}
		got := roundTripNodeID(t, c.id)
		if got.Namespace != c.id.Namespace || got.Numeric != c.id.Numeric {
			t.Errorf("%v round-tripped to %v", c.id, got)
		}
	}
}

func TestNodeIDStringRoundTrip(t *testing.T) {
	n := NewStringNodeID(2, "Demo.Static.Scalar")
	got := roundTripNodeID(t, n)
	if got.Text != n.Text || got.Namespace != 2 || got.Type != NodeIDTypeString {
		t.Errorf("got %+v", got)
	}
	if n.String() != "ns=2;s=Demo.Static.Scalar" || NewNumericNodeID(0, 85).String() != "i=85" {
		t.Errorf("textual notation: %q, %q", n.String(), NewNumericNodeID(0, 85).String())
	}
}

func TestNodeIDGuidRoundTrip(t *testing.T) {
	n := NodeID{Type: NodeIDTypeGuid, Namespace: 5, GuidID: Guid{Data1: 0xdeadbeef, Data2: 7, Data3: 9, Data4: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	got := roundTripNodeID(t, n)
	if got.GuidID != n.GuidID {
		t.Errorf("guid %v != %v", got.GuidID, n.GuidID)
	}
}

func TestNodeIDByteStringRoundTrip(t *testing.T) {
	n := NodeID{Type: NodeIDTypeByteString, Namespace: 1, Bytes: []byte{1, 2, 3}}
	got := roundTripNodeID(t, n)
	if !bytes.Equal(got.Bytes, n.Bytes) {
		t.Errorf("bytes %x != %x", got.Bytes, n.Bytes)
	}
}

func TestQuickNodeIDNumericRoundTrip(t *testing.T) {
	f := func(ns uint16, id uint32) bool {
		n := NewNumericNodeID(ns, id)
		e := NewEncoder(0)
		n.Encode(e)
		d := NewDecoder(e.Bytes())
		got := DecodeNodeID(d)
		return d.Close() == nil && got.Namespace == ns && got.Numeric == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpandedNodeIDRoundTrip(t *testing.T) {
	cases := []ExpandedNodeID{
		{NodeID: NewNumericNodeID(0, 85)},
		{NodeID: NewStringNodeID(1, "abc"), NamespaceURI: "urn:example"},
		{NodeID: NewNumericNodeID(2, 7), ServerIndex: 3},
		{NodeID: NewNumericNodeID(2, 7), NamespaceURI: "urn:x", ServerIndex: 9},
	}
	for _, x := range cases {
		e := NewEncoder(0)
		x.Encode(e)
		d := NewDecoder(e.Bytes())
		got := DecodeExpandedNodeID(d)
		if err := d.Close(); err != nil {
			t.Fatalf("%+v: %v", x, err)
		}
		if got.NamespaceURI != x.NamespaceURI || got.ServerIndex != x.ServerIndex ||
			got.NodeID.Key() != x.NodeID.Key() {
			t.Errorf("round trip %+v -> %+v", x, got)
		}
	}
}

func TestQualifiedNameRoundTrip(t *testing.T) {
	q := QualifiedName{NamespaceIndex: 4, Name: "Objects"}
	e := NewEncoder(0)
	q.Encode(e)
	d := NewDecoder(e.Bytes())
	if got := DecodeQualifiedName(d); got != q {
		t.Errorf("got %+v", got)
	}
}

func TestLocalizedTextRoundTrip(t *testing.T) {
	cases := []LocalizedText{
		{},
		{Text: "hello"},
		{Locale: "en-US", Text: "hello"},
		{Locale: "de"},
	}
	for _, l := range cases {
		e := NewEncoder(0)
		l.Encode(e)
		d := NewDecoder(e.Bytes())
		got := DecodeLocalizedText(d)
		if err := d.Close(); err != nil {
			t.Fatalf("%+v: %v", l, err)
		}
		if got != l {
			t.Errorf("round trip %+v -> %+v", l, got)
		}
	}
}

func TestExtensionObjectRoundTrip(t *testing.T) {
	x := NewExtensionObject(321, []byte{0xDE, 0xAD})
	e := NewEncoder(0)
	x.Encode(e)
	d := NewDecoder(e.Bytes())
	got := DecodeExtensionObject(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.TypeID.NodeID.Numeric != 321 || !bytes.Equal(got.Body, x.Body) {
		t.Errorf("got %+v", got)
	}

	empty := ExtensionObject{}
	e2 := NewEncoder(0)
	empty.Encode(e2)
	d2 := NewDecoder(e2.Bytes())
	got2 := DecodeExtensionObject(d2)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if got2.Encoding != ExtensionObjectEmpty || got2.Body != nil {
		t.Errorf("empty ext obj decoded to %+v", got2)
	}
}

func TestVariantScalarRoundTrip(t *testing.T) {
	now := time.Date(2020, 8, 30, 12, 0, 0, 0, time.UTC)
	cases := []Variant{
		{},
		BoolVariant(true),
		Int32Variant(-42),
		{Type: TypeUint32, Uint: 42},
		DoubleVariant(1.5),
		StringVariant("m3InflowPerHour"),
		TimeVariant(now),
		LocalizedTextVariant("Füllstand"),
		{Type: TypeSByte, Int: -3},
		{Type: TypeByte, Uint: 200},
		{Type: TypeInt16, Int: -1000},
		{Type: TypeUint16, Uint: 50000},
		{Type: TypeInt64, Int: -1 << 40},
		{Type: TypeUint64, Uint: 1 << 60},
		{Type: TypeFloat, Float: 0.5},
		{Type: TypeGuid, GuidVal: Guid{Data1: 0x12345678, Data2: 0x9abc, Data3: 0xdef0, Data4: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{Type: TypeByteString, Bytes: []byte{9, 8, 7}},
		{Type: TypeNodeID, Node: NewStringNodeID(2, "n")},
		{Type: TypeStatusCode, Status: uastatus.BadNodeIdUnknown},
		{Type: TypeQualifiedName, QName: QualifiedName{1, "q"}},
	}
	for _, v := range cases {
		e := NewEncoder(0)
		v.Encode(e)
		d := NewDecoder(e.Bytes())
		got := DecodeVariant(d)
		if err := d.Close(); err != nil {
			t.Fatalf("variant %v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestVariantStringArrayRoundTrip(t *testing.T) {
	v := StringArrayVariant([]string{"http://opcfoundation.org/UA/", "urn:demo"})
	e := NewEncoder(0)
	v.Encode(e)
	d := NewDecoder(e.Bytes())
	got := DecodeVariant(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"http://opcfoundation.org/UA/", "urn:demo"}
	if !reflect.DeepEqual(got.StringArray(), want) {
		t.Errorf("got %v", got.StringArray())
	}
}

func TestVariantStringArrayOnNonArray(t *testing.T) {
	if StringVariant("x").StringArray() != nil {
		t.Error("StringArray on scalar should be nil")
	}
}

func TestDataValueRoundTrip(t *testing.T) {
	val := StringVariant("v")
	dv := DataValue{
		Value:           &val,
		Status:          uastatus.Good,
		HasStatus:       true,
		SourceTimestamp: TimeToDateTime(time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC)),
	}
	e := NewEncoder(0)
	dv.Encode(e)
	d := NewDecoder(e.Bytes())
	got := DecodeDataValue(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Value == nil || got.Value.Str != "v" || !got.HasStatus ||
		got.SourceTimestamp != dv.SourceTimestamp {
		t.Errorf("got %+v", got)
	}
}

func TestVariantRejectsUnknownType(t *testing.T) {
	d := NewDecoder([]byte{26}) // type id out of range
	_ = DecodeVariant(d)
	if d.Err() == nil {
		t.Error("decoding variant type 26 should fail")
	}
}

func TestGuidStringFormat(t *testing.T) {
	g := Guid{Data1: 0x12345678, Data2: 0x9ABC, Data3: 0xDEF0,
		Data4: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	want := "12345678-9abc-def0-0102-030405060708"
	if got := g.String(); got != want {
		t.Errorf("Guid.String() = %q, want %q", got, want)
	}
}

func TestStatusCodeHelpers(t *testing.T) {
	if uastatus.Good.IsBad() || uastatus.UncertainInitialValue.IsBad() {
		t.Error("Good or Uncertain misclassified")
	}
	if !uastatus.BadTimeout.IsBad() {
		t.Error("BadTimeout not bad")
	}
	if uastatus.BadTimeout.Name() != "BadTimeout" {
		t.Errorf("Name = %q", uastatus.BadTimeout.Name())
	}
	if uastatus.Code(0x80FF0000).String() == "" {
		t.Error("unknown code should render hex")
	}
	if uastatus.BadTimeout.Error() != "BadTimeout" {
		t.Errorf("Error() = %q", uastatus.BadTimeout.Error())
	}
}

func BenchmarkVariantRoundTrip(b *testing.B) {
	v := StringArrayVariant([]string{"a", "b", "c", "d"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(64)
		v.Encode(e)
		d := NewDecoder(e.Bytes())
		_ = DecodeVariant(d)
	}
}
