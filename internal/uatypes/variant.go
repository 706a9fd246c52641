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
// Type is populated; for arrays, the slice field is used instead.
type Variant struct {
	Type    TypeID
	IsArray bool

	Bool    bool
	Int     int64  // SByte, Int16, Int32, Int64
	Uint    uint64 // Byte, UInt16, UInt32, UInt64
	Float   float64
	Str     string // String, XMLElement
	Time    time.Time
	GuidVal Guid
	Bytes   []byte
	Node    NodeID
	XNode   ExpandedNodeID
	Status  uastatus.Code
	QName   QualifiedName
	LText   LocalizedText
	ExtObj  ExtensionObject

	Array []Variant // element variants for array values
}

// Convenience constructors for the types the study exercises.

// BoolVariant wraps a bool.
func BoolVariant(v bool) Variant { return Variant{Type: TypeBoolean, Bool: v} }

// Int32Variant wraps an int32.
func Int32Variant(v int32) Variant { return Variant{Type: TypeInt32, Int: int64(v)} }

// DoubleVariant wraps a float64.
func DoubleVariant(v float64) Variant { return Variant{Type: TypeDouble, Float: v} }

// StringVariant wraps a string.
func StringVariant(v string) Variant { return Variant{Type: TypeString, Str: v} }

// TimeVariant wraps a time.Time.
func TimeVariant(v time.Time) Variant { return Variant{Type: TypeDateTime, Time: v} }

// LocalizedTextVariant wraps a localized text.
func LocalizedTextVariant(v string) Variant {
	return Variant{Type: TypeLocalizedText, LText: NewText(v)}
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
		return v.Time.Format(time.RFC3339)
	case TypeGuid:
		return v.GuidVal.String()
	case TypeByteString:
		return fmt.Sprintf("bytes[%d]", len(v.Bytes))
	case TypeNodeID:
		return v.Node.String()
	case TypeStatusCode:
		return v.Status.String()
	case TypeQualifiedName:
		return v.QName.String()
	case TypeLocalizedText:
		return v.LText.Text
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
		e.WriteTime(v.Time)
	case TypeGuid:
		v.GuidVal.Encode(e)
	case TypeByteString:
		e.WriteByteString(v.Bytes)
	case TypeNodeID:
		v.Node.Encode(e)
	case TypeExpandedNodeID:
		v.XNode.Encode(e)
	case TypeStatusCode:
		e.WriteStatus(v.Status)
	case TypeQualifiedName:
		v.QName.Encode(e)
	case TypeLocalizedText:
		v.LText.Encode(e)
	case TypeExtensionObject:
		v.ExtObj.Encode(e)
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
	case TypeDateTime:
		v.Time = d.ReadTime()
	case TypeGuid:
		v.GuidVal = DecodeGuid(d)
	case TypeByteString:
		v.Bytes = d.ReadByteString()
	case TypeNodeID:
		v.Node = DecodeNodeID(d)
	case TypeExpandedNodeID:
		v.XNode = DecodeExpandedNodeID(d)
	case TypeStatusCode:
		v.Status = d.ReadStatus()
	case TypeQualifiedName:
		v.QName = DecodeQualifiedName(d)
	case TypeLocalizedText:
		v.LText = DecodeLocalizedText(d)
	case TypeExtensionObject:
		v.ExtObj = DecodeExtensionObject(d)
	case TypeDataValue:
		DecodeDataValue(d)
	case TypeVariant:
		DecodeVariant(d)
	case TypeDiagnosticInfo:
		DecodeDiagnosticInfo(d)
	default:
		d.fail(fmt.Errorf("%w: variant scalar type %d", ErrInvalidData, v.Type))
	}
}
