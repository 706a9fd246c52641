package uatypes

import (
	"testing"
	"time"
)

// Fuzz armor for the binary decoder (DESIGN.md §9): arbitrary wire
// bytes must never panic a decoder, and a handful of hostile input
// bytes must never buy an allocation that is not proportional to the
// input — length prefixes are attacker-controlled claims, not facts.

// fuzzSeedCorpus returns valid encodings of every composite type the
// fuzz gauntlet decodes, so coverage starts from the happy path
// rather than from random bytes.
func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte
	add := func(fill func(e *Encoder)) {
		e := NewEncoder(64)
		fill(e)
		seeds = append(seeds, e.Bytes())
	}
	add(func(e *Encoder) { Guid{Data1: 0x12345678, Data2: 0x9abc}.Encode(e) })
	add(func(e *Encoder) { NewNumericNodeID(2, 12765).Encode(e) })
	add(func(e *Encoder) { NewStringNodeID(1, "Demo.Static").Encode(e) })
	add(func(e *Encoder) {
		ExpandedNodeID{
			NodeID:       NewNumericNodeID(0, 85),
			NamespaceURI: "urn:example",
			ServerIndex:  1,
		}.Encode(e)
	})
	add(func(e *Encoder) { QualifiedName{NamespaceIndex: 3, Name: "Objects"}.Encode(e) })
	add(func(e *Encoder) { LocalizedText{Locale: "en", Text: "Root"}.Encode(e) })
	add(func(e *Encoder) { NewExtensionObject(321, []byte{1, 2, 3, 4}).Encode(e) })
	add(func(e *Encoder) { StringVariant("hello").Encode(e) })
	add(func(e *Encoder) { StringArrayVariant([]string{"a", "b"}).Encode(e) })
	add(func(e *Encoder) {
		v := DoubleVariant(3.14)
		DataValue{
			Value:           &v,
			SourceTimestamp: TimeToDateTime(time.Unix(1600000000, 0).UTC()),
		}.Encode(e)
	})
	add(func(e *Encoder) {
		e.WriteString("endpoint")
		e.WriteByteString([]byte{0xde, 0xad})
		e.WriteInt32(2) // array length prefix
		e.WriteTime(time.Unix(1600000000, 0))
	})
	return seeds
}

// arrayClaimSeeds are array length prefixes followed by 68 zero bytes —
// room for four 17-byte elements: a claim of exactly four, of five, and
// of the maximum array length, the shapes ReadArrayLenOf tells apart.
func arrayClaimSeeds() [][]byte {
	var seeds [][]byte
	for _, claim := range []int32{4, 5, MaxArrayLength} {
		e := NewEncoder(72)
		e.WriteInt32(claim)
		e.WriteRaw(make([]byte, 4*17))
		seeds = append(seeds, e.Bytes())
	}
	return seeds
}

// FuzzDecoderGauntlet drives every composite decoder over the same
// fuzz input with an independent Decoder each, checking the armor
// invariants: no panic, sticky errors stay sticky, and decoded
// strings/byte-strings never exceed the input length (a length claim
// must not out-allocate the bytes backing it).
func FuzzDecoderGauntlet(f *testing.F) {
	for _, s := range fuzzSeedCorpus() {
		f.Add(s)
	}
	// Hostile claims: huge string length, huge array length, negative
	// lengths, truncated composites.
	f.Add([]byte{0xf0, 0xff, 0xff, 0x7f})       // string/array claim ~2^31
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff})       // length -2
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 0x41}) // 1MiB claim, 1 byte of data
	f.Add([]byte{0x03})                         // NodeID type byte, no body
	for _, s := range arrayClaimSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		runs := []func(d *Decoder){
			func(d *Decoder) { DecodeGuid(d) },
			func(d *Decoder) { DecodeNodeID(d) },
			func(d *Decoder) { DecodeExpandedNodeID(d) },
			func(d *Decoder) { DecodeQualifiedName(d) },
			func(d *Decoder) { DecodeLocalizedText(d) },
			func(d *Decoder) { DecodeExtensionObject(d) },
			func(d *Decoder) { DecodeVariant(d) },
			func(d *Decoder) { DecodeDataValue(d) },
			func(d *Decoder) { DecodeDiagnosticInfo(d) },
			func(d *Decoder) {
				if s := d.ReadString(); len(s) > len(data) {
					t.Errorf("ReadString returned %d bytes from a %d-byte input", len(s), len(data))
				}
			},
			func(d *Decoder) {
				if b := d.ReadByteString(); len(b) > len(data) {
					t.Errorf("ReadByteString returned %d bytes from a %d-byte input", len(b), len(data))
				}
			},
			func(d *Decoder) {
				if n := d.ReadArrayLen(); n > len(data) {
					t.Errorf("ReadArrayLen accepted claim %d from a %d-byte input", n, len(data))
				}
			},
			func(d *Decoder) {
				const elemWire = 17
				if n := d.ReadArrayLenOf(elemWire); n*elemWire > len(data) {
					t.Errorf("ReadArrayLenOf(%d) accepted claim %d from a %d-byte input", elemWire, n, len(data))
				}
			},
			func(d *Decoder) { d.ReadTime() },
		}
		for _, run := range runs {
			d := NewDecoder(data)
			run(d)
			if d.Err() != nil {
				// Sticky: a failed decoder must refuse further reads.
				off := d.Offset()
				d.ReadUint32()
				if d.Offset() != off {
					t.Error("decoder advanced past a sticky error")
				}
			}
			if d.Offset() > len(data) {
				t.Errorf("decoder offset %d beyond input length %d", d.Offset(), len(data))
			}
		}
	})
}

// FuzzDecoderSequence decodes a stream of primitives from one shared
// decoder — the way real message decoders consume a body — verifying
// the cursor never escapes the buffer whatever the interleaving.
func FuzzDecoderSequence(f *testing.F) {
	for _, s := range append(fuzzSeedCorpus(), arrayClaimSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for d.Err() == nil && d.Remaining() > 0 {
			switch d.Offset() % 5 {
			case 0:
				d.ReadUint32()
			case 1:
				d.ReadString()
			case 2:
				d.ReadUint8()
			case 3:
				d.ReadByteString()
			default:
				d.ReadUint16()
			}
			if d.Offset() > len(data) {
				t.Fatalf("offset %d beyond input length %d", d.Offset(), len(data))
			}
		}
	})
}
