package uatypes

import (
	"fmt"
	"time"

	"repro/internal/uastatus"
)

// TypeID identifies the built-in data type carried by a Variant.
type TypeID byte

// Built-in type ids (OPC 10000-6 §5.1.2).
const (
	TypeNull            TypeID = 0
	TypeBoolean         TypeID = 1
	TypeSByte           TypeID = 2
	TypeByte            TypeID = 3
	TypeInt16           TypeID = 4
	TypeUint16          TypeID = 5
	TypeInt32           TypeID = 6
	TypeUint32          TypeID = 7
	TypeInt64           TypeID = 8
	TypeUint64          TypeID = 9
	TypeFloat           TypeID = 10
	TypeDouble          TypeID = 11
	TypeString          TypeID = 12
	TypeDateTime        TypeID = 13
	TypeGuid            TypeID = 14
	TypeByteString      TypeID = 15
	TypeXMLElement      TypeID = 16
	TypeNodeID          TypeID = 17
	TypeExpandedNodeID  TypeID = 18
	TypeStatusCode      TypeID = 19
	TypeQualifiedName   TypeID = 20
	TypeLocalizedText   TypeID = 21
	TypeExtensionObject TypeID = 22
	TypeDataValue       TypeID = 23
	TypeVariant         TypeID = 24
	TypeDiagnosticInfo  TypeID = 25
)

// Variant encoding flag bits.
const (
	variantArrayDimensions = 0x40
	variantArrayValues     = 0x80
)

// Variant is a polymorphic value container. Exactly one field matching
// Type is populated; for arrays, the slice field is used instead. The
// kinds a walk reads are inline and the rest behind Ext, so a Variant,
// which every address-space node holds, is 80 bytes.
type Variant struct {
	Type    TypeID
	IsArray bool
	Bool    bool
	Status  uastatus.Code
	Int     int64  // SByte, Int16, Int32, Int64
	Uint    uint64 // Byte, UInt16, UInt32, UInt64
	Float   float64
	Str     string    // String, XMLElement
	Array   []Variant // element variants for array values
	Ext     *VariantExt
}

// VariantExt holds the value of a Variant of a rarely carried kind; a
// nil Ext reads as the zero value.
type VariantExt struct {
	Time    time.Time
	GuidVal Guid
	Bytes   []byte
	Node    NodeID
	XNode   ExpandedNodeID
	QName   QualifiedName
	LText   LocalizedText
	ExtObj  ExtensionObject
	// Nested is the encoding of a DataValue, Variant or DiagnosticInfo
	// value exactly as it was decoded; Encode writes it back verbatim.
	Nested []byte
}

func (v *Variant) ext() *VariantExt {
	if v.Ext == nil {
		return new(VariantExt)
	}
	return v.Ext
}

// Convenience constructors for the types the study exercises.

// Int32Variant wraps an int32.
func Int32Variant(v int32) Variant { return Variant{Type: TypeInt32, Int: int64(v)} }

// DoubleVariant wraps a float64.
func DoubleVariant(v float64) Variant { return Variant{Type: TypeDouble, Float: v} }

// StringVariant wraps a string.
func StringVariant(v string) Variant { return Variant{Type: TypeString, Str: v} }

// TimeVariant wraps a time.Time.
func TimeVariant(v time.Time) Variant { return Variant{Type: TypeDateTime, Ext: &VariantExt{Time: v}} }

// LocalizedTextVariant wraps a localized text.
func LocalizedTextVariant(v string) Variant {
	return Variant{Type: TypeLocalizedText, Ext: &VariantExt{LText: NewText(v)}}
}

// StringArrayVariant wraps a string slice.
func StringArrayVariant(vs []string) Variant {
	arr := make([]Variant, len(vs))
	for i, s := range vs {
		arr[i] = StringVariant(s)
	}
	return Variant{Type: TypeString, IsArray: true, Array: arr}
}

// StringArray extracts []string from a string-array variant.
func (v Variant) StringArray() []string {
	if !v.IsArray || v.Type != TypeString {
		return nil
	}
	out := make([]string, len(v.Array))
	for i, el := range v.Array {
		out[i] = el.Str
	}
	return out
}

// String renders a debug representation of the scalar value.
func (v Variant) String() string {
	if v.IsArray {
		return fmt.Sprintf("array<%d>[%d]", v.Type, len(v.Array))
	}
	switch v.Type {
	case TypeNull:
		return "null"
	case TypeBoolean:
		return fmt.Sprintf("%t", v.Bool)
	case TypeSByte, TypeInt16, TypeInt32, TypeInt64:
		return fmt.Sprintf("%d", v.Int)
	case TypeByte, TypeUint16, TypeUint32, TypeUint64:
		return fmt.Sprintf("%d", v.Uint)
	case TypeFloat, TypeDouble:
		return fmt.Sprintf("%g", v.Float)
	case TypeString, TypeXMLElement:
		return v.Str
	case TypeDateTime:
		return v.ext().Time.Format(time.RFC3339)
	case TypeGuid:
		return v.ext().GuidVal.String()
	case TypeByteString:
		return fmt.Sprintf("bytes[%d]", len(v.ext().Bytes))
	case TypeNodeID:
		return v.ext().Node.String()
	case TypeStatusCode:
		return v.Status.String()
	case TypeQualifiedName:
		return v.ext().QName.String()
	case TypeLocalizedText:
		return v.ext().LText.Text
	default:
		return fmt.Sprintf("variant<%d>", v.Type)
	}
}

// Encode writes the Variant to e.
func (v Variant) Encode(e *Encoder) {
	if v.Type == TypeNull {
		e.WriteUint8(0)
		return
	}
	flags := byte(v.Type)
	if v.IsArray {
		flags |= variantArrayValues
	}
	e.WriteUint8(flags)
	if v.IsArray {
		e.WriteInt32(int32(len(v.Array)))
		for _, el := range v.Array {
			el.encodeScalar(e)
		}
		return
	}
	v.encodeScalar(e)
}

func (v Variant) encodeScalar(e *Encoder) {
	switch v.Type {
	case TypeBoolean:
		e.WriteBool(v.Bool)
	case TypeSByte:
		e.WriteSByte(int8(v.Int))
	case TypeByte:
		e.WriteUint8(byte(v.Uint))
	case TypeInt16:
		e.WriteInt16(int16(v.Int))
	case TypeUint16:
		e.WriteUint16(uint16(v.Uint))
	case TypeInt32:
		e.WriteInt32(int32(v.Int))
	case TypeUint32:
		e.WriteUint32(uint32(v.Uint))
	case TypeInt64:
		e.WriteInt64(v.Int)
	case TypeUint64:
		e.WriteUint64(v.Uint)
	case TypeFloat:
		e.WriteFloat32(float32(v.Float))
	case TypeDouble:
		e.WriteFloat64(v.Float)
	case TypeString, TypeXMLElement:
		e.WriteString(v.Str)
	case TypeDateTime:
		e.WriteTime(v.ext().Time)
	case TypeGuid:
		v.ext().GuidVal.Encode(e)
	case TypeByteString:
		e.WriteByteString(v.ext().Bytes)
	case TypeNodeID:
		v.ext().Node.Encode(e)
	case TypeExpandedNodeID:
		v.ext().XNode.Encode(e)
	case TypeStatusCode:
		e.WriteStatus(v.Status)
	case TypeQualifiedName:
		v.ext().QName.Encode(e)
	case TypeLocalizedText:
		v.ext().LText.Encode(e)
	case TypeExtensionObject:
		v.ext().ExtObj.Encode(e)
	case TypeDataValue, TypeVariant, TypeDiagnosticInfo:
		e.WriteRaw(v.ext().Nested)
	}
}

// DecodeVariant reads a Variant from d.
func DecodeVariant(d *Decoder) Variant {
	var v Variant
	flags := d.ReadUint8()
	v.Type = TypeID(flags &^ (variantArrayValues | variantArrayDimensions))
	if v.Type == TypeNull {
		return v
	}
	if v.Type > TypeDiagnosticInfo {
		d.fail(fmt.Errorf("%w: variant type %d", ErrInvalidData, v.Type))
		return v
	}
	if flags&variantArrayValues != 0 {
		v.IsArray = true
		n := d.ReadArrayLen()
		if n > 0 {
			v.Array = make([]Variant, 0, min(n, 4096))
			for i := 0; i < n && d.Err() == nil; i++ {
				el := Variant{Type: v.Type}
				el.decodeScalar(d)
				v.Array = append(v.Array, el)
			}
		}
		if flags&variantArrayDimensions != 0 {
			dims := d.ReadArrayLen()
			for i := 0; i < dims && d.Err() == nil; i++ {
				d.ReadInt32()
			}
		}
		return v
	}
	v.decodeScalar(d)
	return v
}

func (v *Variant) decodeScalar(d *Decoder) {
	start := d.off
	switch v.Type {
	case TypeBoolean:
		v.Bool = d.ReadBool()
	case TypeSByte:
		v.Int = int64(d.ReadSByte())
	case TypeByte:
		v.Uint = uint64(d.ReadUint8())
	case TypeInt16:
		v.Int = int64(d.ReadInt16())
	case TypeUint16:
		v.Uint = uint64(d.ReadUint16())
	case TypeInt32:
		v.Int = int64(d.ReadInt32())
	case TypeUint32:
		v.Uint = uint64(d.ReadUint32())
	case TypeInt64:
		v.Int = d.ReadInt64()
	case TypeUint64:
		v.Uint = d.ReadUint64()
	case TypeFloat:
		v.Float = float64(d.ReadFloat32())
	case TypeDouble:
		v.Float = d.ReadFloat64()
	case TypeString, TypeXMLElement:
		v.Str = d.ReadString()
	case TypeStatusCode:
		v.Status = d.ReadStatus()
	case TypeDateTime:
		v.Ext = &VariantExt{Time: d.ReadTime()}
	case TypeGuid:
		v.Ext = &VariantExt{GuidVal: DecodeGuid(d)}
	case TypeByteString:
		v.Ext = &VariantExt{Bytes: d.ReadByteString()}
	case TypeNodeID:
		v.Ext = &VariantExt{Node: DecodeNodeID(d)}
	case TypeExpandedNodeID:
		v.Ext = &VariantExt{XNode: DecodeExpandedNodeID(d)}
	case TypeQualifiedName:
		v.Ext = &VariantExt{QName: DecodeQualifiedName(d)}
	case TypeLocalizedText:
		v.Ext = &VariantExt{LText: DecodeLocalizedText(d)}
	case TypeExtensionObject:
		v.Ext = &VariantExt{ExtObj: DecodeExtensionObject(d)}
	case TypeDataValue:
		DecodeDataValue(d)
	case TypeVariant:
		DecodeVariant(d)
	case TypeDiagnosticInfo:
		DecodeDiagnosticInfo(d)
	default:
		d.fail(fmt.Errorf("%w: variant scalar type %d", ErrInvalidData, v.Type))
	}
	if v.Type >= TypeDataValue && d.err == nil { // a nested value is kept as its bytes
		v.Ext = &VariantExt{Nested: append([]byte(nil), d.b[start:d.off]...)}
	}
}
