package uatypes

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/uastatus"
)

// Guid is a 16-byte globally unique identifier with Microsoft-style
// mixed-endian wire encoding (OPC 10000-6 §5.2.2.13).
type Guid struct {
	Data1 uint32
	Data2 uint16
	Data3 uint16
	Data4 [8]byte
}

// Encode writes the Guid to e.
func (g Guid) Encode(e *Encoder) {
	e.WriteUint32(g.Data1)
	e.WriteUint16(g.Data2)
	e.WriteUint16(g.Data3)
	e.WriteRaw(g.Data4[:])
}

// DecodeGuid reads a Guid from d.
func DecodeGuid(d *Decoder) Guid {
	var g Guid
	g.Data1 = d.ReadUint32()
	g.Data2 = d.ReadUint16()
	g.Data3 = d.ReadUint16()
	copy(g.Data4[:], d.take(8))
	return g
}

// String renders the Guid in canonical 8-4-4-4-12 form.
func (g Guid) String() string {
	return fmt.Sprintf("%08x-%04x-%04x-%s-%s",
		g.Data1, g.Data2, g.Data3,
		hex.EncodeToString(g.Data4[:2]), hex.EncodeToString(g.Data4[2:]))
}

// NodeIDType identifies the identifier variant of a NodeID. The zero
// value is Numeric, so the zero NodeID is the null node id "i=0".
type NodeIDType byte

// Logical NodeID identifier types. On the wire, numeric ids use one of
// three compact encodings chosen automatically (OPC 10000-6 §5.2.2.9).
const (
	NodeIDTypeNumeric    NodeIDType = 0
	NodeIDTypeString     NodeIDType = 1
	NodeIDTypeGuid       NodeIDType = 2
	NodeIDTypeByteString NodeIDType = 3
)

// Wire encoding bytes for node ids.
const (
	wireTwoByte    = 0x00
	wireFourByte   = 0x01
	wireNumeric    = 0x02
	wireString     = 0x03
	wireGuid       = 0x04
	wireByteString = 0x05
)

// NodeID identifies a node in an OPC UA address space. It is 24 bytes
// and comparable (a map key as it stands): Text holds every identifier
// but a numeric one, a Guid as its 16-byte encoding.
type NodeID struct {
	Type      NodeIDType
	Namespace uint16
	Numeric   uint32
	Text      string // String, ByteString or Guid identifier
}

// guid returns the identifier of a Guid node id.
func (n NodeID) guid() Guid { return DecodeGuid(NewDecoder([]byte(n.Text))) }

// NewNumericNodeID returns a numeric NodeID in the given namespace.
func NewNumericNodeID(ns uint16, id uint32) NodeID {
	return NodeID{Type: NodeIDTypeNumeric, Namespace: ns, Numeric: id}
}

// NewStringNodeID returns a string NodeID in the given namespace.
func NewStringNodeID(ns uint16, s string) NodeID {
	return NodeID{Type: NodeIDTypeString, Namespace: ns, Text: s}
}

// IsNull reports whether the NodeID is the null node id (ns=0, i=0).
func (n NodeID) IsNull() bool {
	switch n.Type {
	case NodeIDTypeNumeric:
		return n.Namespace == 0 && n.Numeric == 0
	case NodeIDTypeString:
		return n.Namespace == 0 && n.Text == ""
	case NodeIDTypeByteString:
		return n.Namespace == 0 && n.Text == ""
	}
	return false
}

// AppendKey appends the node id's map-key representation to dst and
// returns the result. Lookups on the address-space and session hot
// paths use it with a stack buffer and the map[string(bytes)] pattern,
// which the compiler compiles without allocating the key.
func (n NodeID) AppendKey(dst []byte) []byte {
	dst = append(dst, "ns="...)
	dst = strconv.AppendUint(dst, uint64(n.Namespace), 10)
	switch n.Type {
	case NodeIDTypeString:
		dst = append(dst, ";s="...)
		return append(dst, n.Text...)
	case NodeIDTypeGuid:
		dst = append(dst, ";g="...)
		return append(dst, n.guid().String()...)
	case NodeIDTypeByteString:
		dst = append(dst, ";b="...)
		return hex.AppendEncode(dst, []byte(n.Text))
	default:
		dst = append(dst, ";i="...)
		return strconv.AppendUint(dst, uint64(n.Numeric), 10)
	}
}

// Key returns a map-key string uniquely identifying the node id. The
// format matches the historical Sprintf-based one byte for byte.
func (n NodeID) Key() string {
	var buf [48]byte
	return string(n.AppendKey(buf[:0]))
}

// String renders the NodeID in the standard textual notation.
func (n NodeID) String() string {
	if n.Namespace == 0 {
		switch n.Type {
		case NodeIDTypeString:
			return "s=" + n.Text
		case NodeIDTypeGuid:
			return "g=" + n.guid().String()
		case NodeIDTypeByteString:
			return "b=" + hex.EncodeToString([]byte(n.Text))
		default:
			return "i=" + strconv.FormatUint(uint64(n.Numeric), 10)
		}
	}
	return n.Key()
}

// Encode writes the NodeID to e using the most compact encoding.
func (n NodeID) Encode(e *Encoder) {
	switch n.Type {
	case NodeIDTypeNumeric:
		switch {
		case n.Namespace == 0 && n.Numeric <= 0xFF:
			e.WriteUint8(wireTwoByte)
			e.WriteUint8(byte(n.Numeric))
		case n.Namespace <= 0xFF && n.Numeric <= 0xFFFF:
			e.WriteUint8(wireFourByte)
			e.WriteUint8(byte(n.Namespace))
			e.WriteUint16(uint16(n.Numeric))
		default:
			e.WriteUint8(wireNumeric)
			e.WriteUint16(n.Namespace)
			e.WriteUint32(n.Numeric)
		}
	case NodeIDTypeString:
		e.WriteUint8(wireString)
		e.WriteUint16(n.Namespace)
		e.WriteString(n.Text)
	case NodeIDTypeGuid:
		e.WriteUint8(wireGuid)
		e.WriteUint16(n.Namespace)
		n.guid().Encode(e)
	case NodeIDTypeByteString:
		e.WriteUint8(wireByteString)
		e.WriteUint16(n.Namespace)
		e.WriteString(n.Text) // a null identifier reads back as the empty one
	}
}

// expandedFlagServerIndex and expandedFlagNamespaceURI mark optional
// ExpandedNodeId fields in the encoding byte.
const (
	expandedFlagNamespaceURI = 0x80
	expandedFlagServerIndex  = 0x40
)

// DecodeNodeID reads a NodeID from d.
func DecodeNodeID(d *Decoder) NodeID {
	var n NodeID
	enc := d.ReadUint8() &^ (expandedFlagNamespaceURI | expandedFlagServerIndex)
	switch enc {
	case wireTwoByte:
		n.Type = NodeIDTypeNumeric
		n.Numeric = uint32(d.ReadUint8())
	case wireFourByte:
		n.Type = NodeIDTypeNumeric
		n.Namespace = uint16(d.ReadUint8())
		n.Numeric = uint32(d.ReadUint16())
	case wireNumeric:
		n.Type = NodeIDTypeNumeric
		n.Namespace = d.ReadUint16()
		n.Numeric = d.ReadUint32()
	case wireString:
		n.Type = NodeIDTypeString
		n.Namespace = d.ReadUint16()
		n.Text = d.readIdentifier(n.Namespace)
	case wireGuid:
		n.Type = NodeIDTypeGuid
		n.Namespace = d.ReadUint16()
		n.Text = string(d.take(16))
	case wireByteString:
		n.Type = NodeIDTypeByteString
		n.Namespace = d.ReadUint16()
		n.Text = d.ReadString()
	default:
		d.fail(fmt.Errorf("%w: node id encoding 0x%02x", ErrInvalidData, enc))
	}
	return n
}

// ExpandedNodeID extends NodeID with an optional namespace URI and server
// index (OPC 10000-6 §5.2.2.10).
type ExpandedNodeID struct {
	NodeID       NodeID
	NamespaceURI string
	ServerIndex  uint32
}

// Encode writes the ExpandedNodeID to e.
func (x ExpandedNodeID) Encode(e *Encoder) {
	// The flags share the node id's encoding byte: encode in place and
	// set them there (two per reference description on the browse path,
	// so no scratch encoder).
	at := len(e.buf)
	x.NodeID.Encode(e)
	if x.NamespaceURI != "" {
		e.buf[at] |= expandedFlagNamespaceURI
		e.WriteString(x.NamespaceURI)
	}
	if x.ServerIndex != 0 {
		e.buf[at] |= expandedFlagServerIndex
		e.WriteUint32(x.ServerIndex)
	}
}

// DecodeExpandedNodeID reads an ExpandedNodeID from d.
func DecodeExpandedNodeID(d *Decoder) ExpandedNodeID {
	var x ExpandedNodeID
	if d.Remaining() < 1 {
		d.fail(ErrShortBuffer)
		return x
	}
	flags := d.b[d.off]
	x.NodeID = DecodeNodeID(d)
	if flags&expandedFlagNamespaceURI != 0 {
		x.NamespaceURI = d.ReadString()
	}
	if flags&expandedFlagServerIndex != 0 {
		x.ServerIndex = d.ReadUint32()
	}
	return x
}

// QualifiedName is a namespace-qualified browse name.
type QualifiedName struct {
	NamespaceIndex uint16
	Name           string
}

// Encode writes the QualifiedName to e.
func (q QualifiedName) Encode(e *Encoder) {
	e.WriteUint16(q.NamespaceIndex)
	e.WriteString(q.Name)
}

// DecodeQualifiedName reads a QualifiedName from d.
func DecodeQualifiedName(d *Decoder) QualifiedName {
	return QualifiedName{NamespaceIndex: d.ReadUint16(), Name: d.ReadString()}
}

// String renders the QualifiedName as "ns:Name".
func (q QualifiedName) String() string {
	if q.NamespaceIndex == 0 {
		return q.Name
	}
	return strconv.Itoa(int(q.NamespaceIndex)) + ":" + q.Name
}

// LocalizedText is a human-readable string with optional locale.
type LocalizedText struct {
	Locale string
	Text   string
}

// NewText returns a LocalizedText without locale.
func NewText(s string) LocalizedText { return LocalizedText{Text: s} }

// LocalizedText encoding flag bits.
const (
	localizedTextLocale = 0x01
	localizedTextText   = 0x02
)

// Encode writes the LocalizedText to e.
func (l LocalizedText) Encode(e *Encoder) {
	var flags byte
	if l.Locale != "" {
		flags |= localizedTextLocale
	}
	if l.Text != "" {
		flags |= localizedTextText
	}
	e.WriteUint8(flags)
	if flags&localizedTextLocale != 0 {
		e.WriteString(l.Locale)
	}
	if flags&localizedTextText != 0 {
		e.WriteString(l.Text)
	}
}

// DecodeLocalizedText reads a LocalizedText from d.
func DecodeLocalizedText(d *Decoder) LocalizedText {
	var l LocalizedText
	flags := d.ReadUint8()
	if flags&localizedTextLocale != 0 {
		l.Locale = d.ReadString()
	}
	if flags&localizedTextText != 0 {
		l.Text = d.ReadString()
	}
	return l
}

// String returns the text.
func (l LocalizedText) String() string { return l.Text }

// ExtensionObject body encodings.
const (
	ExtensionObjectEmpty      = 0x00
	ExtensionObjectByteString = 0x01
	ExtensionObjectXML        = 0x02
)

// ExtensionObject wraps an encoded structure together with its data type
// id (OPC 10000-6 §5.2.2.15). The study only uses binary bodies.
type ExtensionObject struct {
	TypeID   ExpandedNodeID
	Encoding byte
	Body     []byte
}

// NewExtensionObject wraps a binary body under the given numeric type id.
func NewExtensionObject(typeID uint32, body []byte) ExtensionObject {
	return ExtensionObject{
		TypeID:   ExpandedNodeID{NodeID: NewNumericNodeID(0, typeID)},
		Encoding: ExtensionObjectByteString,
		Body:     body,
	}
}

// Encode writes the ExtensionObject to e.
func (x ExtensionObject) Encode(e *Encoder) {
	x.TypeID.Encode(e)
	e.WriteUint8(x.Encoding)
	if x.Encoding != ExtensionObjectEmpty {
		e.WriteByteString(x.Body)
	}
}

// DecodeExtensionObject reads an ExtensionObject from d.
func DecodeExtensionObject(d *Decoder) ExtensionObject {
	var x ExtensionObject
	x.TypeID = DecodeExpandedNodeID(d)
	x.Encoding = d.ReadUint8()
	switch x.Encoding {
	case ExtensionObjectEmpty:
	case ExtensionObjectByteString, ExtensionObjectXML:
		x.Body = d.ReadByteString()
	default:
		d.fail(fmt.Errorf("%w: extension object encoding 0x%02x", ErrInvalidData, x.Encoding))
	}
	return x
}

// WriteStatus encodes a status code.
func (e *Encoder) WriteStatus(c uastatus.Code) { e.WriteUint32(uint32(c)) }

// ReadStatus decodes a status code.
func (d *Decoder) ReadStatus() uastatus.Code { return uastatus.Code(d.ReadUint32()) }

// DataValue flag bits.
const (
	dataValueValue             = 0x01
	dataValueStatus            = 0x02
	dataValueSourceTimestamp   = 0x04
	dataValueServerTimestamp   = 0x08
	dataValueSourcePicoseconds = 0x10
	dataValueServerPicoseconds = 0x20
)

// DataValue is a value with quality and timestamps (OPC 10000-6 §5.2.2.17).
type DataValue struct {
	Value           *Variant
	Status          uastatus.Code
	HasStatus       bool
	SourceTimestamp int64
	ServerTimestamp int64
}

// Encode writes the DataValue to e.
func (v DataValue) Encode(e *Encoder) {
	var flags byte
	if v.Value != nil {
		flags |= dataValueValue
	}
	if v.HasStatus {
		flags |= dataValueStatus
	}
	if v.SourceTimestamp != 0 {
		flags |= dataValueSourceTimestamp
	}
	if v.ServerTimestamp != 0 {
		flags |= dataValueServerTimestamp
	}
	e.WriteUint8(flags)
	if v.Value != nil {
		v.Value.Encode(e)
	}
	if v.HasStatus {
		e.WriteStatus(v.Status)
	}
	if v.SourceTimestamp != 0 {
		e.WriteInt64(v.SourceTimestamp)
	}
	if v.ServerTimestamp != 0 {
		e.WriteInt64(v.ServerTimestamp)
	}
}

// DecodeDataValue reads a DataValue from d.
func DecodeDataValue(d *Decoder) DataValue {
	var values []Variant
	return decodeDataValue(d, &values, 1)
}

// DecodeDataValues reads n DataValues, n a length ReadArrayLenOf checked.
// Their values share one allocation, sized at the first value for what
// the bytes left could hold (two each): no more than a box per value.
func DecodeDataValues(d *Decoder, n int) []DataValue {
	if n <= 0 {
		return nil
	}
	out := make([]DataValue, 0, n)
	var values []Variant
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decodeDataValue(d, &values, n-i))
	}
	return out
}

// decodeDataValue reads a DataValue, its value appended to *values.
func decodeDataValue(d *Decoder, values *[]Variant, left int) DataValue {
	var v DataValue
	flags := d.ReadUint8()
	if flags&dataValueValue != 0 {
		if len(*values) == cap(*values) {
			*values = make([]Variant, 0, min(left, d.Remaining()/2+1))
		}
		*values = append(*values, DecodeVariant(d))
		v.Value = &(*values)[len(*values)-1]
	}
	if flags&dataValueStatus != 0 {
		v.Status = d.ReadStatus()
		v.HasStatus = true
	}
	if flags&dataValueSourceTimestamp != 0 {
		v.SourceTimestamp = d.ReadInt64()
	}
	if flags&dataValueSourcePicoseconds != 0 {
		d.ReadUint16()
	}
	if flags&dataValueServerTimestamp != 0 {
		v.ServerTimestamp = d.ReadInt64()
	}
	if flags&dataValueServerPicoseconds != 0 {
		d.ReadUint16()
	}
	return v
}

// EncodeNullDiagnosticInfo writes an empty DiagnosticInfo.
func EncodeNullDiagnosticInfo(e *Encoder) { e.WriteUint8(0) }

// DecodeDiagnosticInfo reads and discards a DiagnosticInfo from d.
func DecodeDiagnosticInfo(d *Decoder) {
	const (
		diSymbolicID    = 0x01
		diNamespace     = 0x02
		diLocalizedText = 0x04
		diLocale        = 0x08
		diAdditional    = 0x10
		diInnerStatus   = 0x20
		diInnerDiag     = 0x40
	)
	flags := d.ReadUint8()
	if flags&diSymbolicID != 0 {
		d.ReadInt32()
	}
	if flags&diNamespace != 0 {
		d.ReadInt32()
	}
	if flags&diLocale != 0 {
		d.ReadInt32()
	}
	if flags&diLocalizedText != 0 {
		d.ReadInt32()
	}
	if flags&diAdditional != 0 {
		d.ReadString()
	}
	if flags&diInnerStatus != 0 {
		d.ReadStatus()
	}
	if flags&diInnerDiag != 0 {
		DecodeDiagnosticInfo(d)
	}
}
