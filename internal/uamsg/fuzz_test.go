package uamsg

import (
	"testing"

	"repro/internal/uatypes"
)

// Fuzz armor for the UACP and service-message decoders (DESIGN.md §9):
// the scanner feeds these functions bytes read straight off hostile
// connections, so arbitrary input must fail with an error — never a
// panic, never an allocation the input bytes didn't pay for.

// FuzzDecodeHello covers the first body a server-side listener parses.
func FuzzDecodeHello(f *testing.F) {
	f.Add(Hello{
		Version:        ProtocolVersion,
		ReceiveBufSize: 65535,
		SendBufSize:    65535,
		MaxMessageSize: 1 << 24,
		MaxChunkCount:  1600,
		EndpointURL:    "opc.tcp://192.0.2.1:4840/",
	}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // huge buffer claim
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err == nil && len(h.EndpointURL) > len(data) {
			t.Errorf("EndpointURL length %d exceeds input length %d", len(h.EndpointURL), len(data))
		}
	})
}

// FuzzDecodeAcknowledge covers the client's first parse of server bytes.
func FuzzDecodeAcknowledge(f *testing.F) {
	f.Add(Acknowledge{
		Version:        ProtocolVersion,
		ReceiveBufSize: 65535,
		SendBufSize:    65535,
		MaxMessageSize: 1 << 24,
		MaxChunkCount:  1600,
	}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeAcknowledge(data)
	})
}

// FuzzDecodeConnError covers the UACP error body, which hostile peers
// control completely.
func FuzzDecodeConnError(f *testing.F) {
	f.Add(ConnError{Code: 0x80820000, Reason: "closing"}.Encode())
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f}) // huge reason claim
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeConnError(data)
		if err == nil && len(c.Reason) > len(data) {
			t.Errorf("Reason length %d exceeds input length %d", len(c.Reason), len(data))
		}
	})
}

// FuzzDecodeMessage covers the NodeID-dispatched service decoder — the
// largest attack surface, since it fans out into every registered
// request/response structure (endpoint tables, certificates, variants).
func FuzzDecodeMessage(f *testing.F) {
	f.Add(Encode(&GetEndpointsRequest{
		Header:      RequestHeader{RequestHandle: 1, TimeoutHint: 15000},
		EndpointURL: "opc.tcp://192.0.2.1:4840/",
	}))
	f.Add(Encode(&ServiceFault{}))
	// Valid dispatch id (GetEndpointsRequest) with a hostile body: a
	// null endpoint URL followed by two maximal array claims.
	e := uatypes.NewEncoder(64)
	uatypes.NewNumericNodeID(0, IDGetEndpointsRequest).Encode(e)
	e.WriteRaw(Encode(&GetEndpointsRequest{})[4:])
	f.Add(e.Bytes())
	f.Add([]byte{0x01, 0x00, 0xac, 0x01}) // four-byte id 428, empty body
	// The decoders that size a slice from the claimed length: a claim of
	// exactly the elements the bytes can hold, one more, and the maximum.
	for _, h := range hostileArrays() {
		const total = 1 << 10
		fits := (total - len(h.prefix) - 4) / h.elemWire
		f.Add(h.message(fits, total))
		f.Add(h.message(fits+1, total))
		f.Add(h.message(uatypes.MaxArrayLength, total))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decode(data)
	})
}
