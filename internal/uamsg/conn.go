package uamsg

import (
	"fmt"

	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// UACP message type identifiers (first three header bytes).
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	MsgTypeHello        = "HEL"
	MsgTypeAcknowledge  = "ACK"
	MsgTypeError        = "ERR"
	MsgTypeReverseHello = "RHE"
	MsgTypeMessage      = "MSG"
	MsgTypeOpen         = "OPN"
	MsgTypeClose        = "CLO"
)

// Chunk type identifiers (fourth header byte).
const (
	ChunkFinal        = 'F'
	ChunkIntermediate = 'C'
	ChunkAbort        = 'A'
)

// ProtocolVersion is the UACP protocol version implemented here.
const ProtocolVersion = 0

// Hello opens a UACP connection and negotiates buffer limits
// (OPC 10000-6 §7.1.2.3).
type Hello struct {
	Version        uint32
	ReceiveBufSize uint32
	SendBufSize    uint32
	MaxMessageSize uint32
	MaxChunkCount  uint32
	EndpointURL    string
}

// Encode serializes the Hello body (without the message header).
func (h Hello) Encode() []byte {
	e := uatypes.NewEncoder(32 + len(h.EndpointURL))
	e.WriteUint32(h.Version)
	e.WriteUint32(h.ReceiveBufSize)
	e.WriteUint32(h.SendBufSize)
	e.WriteUint32(h.MaxMessageSize)
	e.WriteUint32(h.MaxChunkCount)
	e.WriteString(h.EndpointURL)
	return e.Bytes()
}

// DecodeHello parses a Hello body.
func DecodeHello(b []byte) (Hello, error) {
	d := uatypes.NewDecoder(b)
	h := Hello{
		Version:        d.ReadUint32(),
		ReceiveBufSize: d.ReadUint32(),
		SendBufSize:    d.ReadUint32(),
		MaxMessageSize: d.ReadUint32(),
		MaxChunkCount:  d.ReadUint32(),
		EndpointURL:    d.ReadString(),
	}
	return h, d.Err()
}

// Acknowledge answers a Hello with the server's revised limits.
type Acknowledge struct {
	Version        uint32
	ReceiveBufSize uint32
	SendBufSize    uint32
	MaxMessageSize uint32
	MaxChunkCount  uint32
}

// Encode serializes the Acknowledge body.
func (a Acknowledge) Encode() []byte {
	e := uatypes.NewEncoder(20)
	e.WriteUint32(a.Version)
	e.WriteUint32(a.ReceiveBufSize)
	e.WriteUint32(a.SendBufSize)
	e.WriteUint32(a.MaxMessageSize)
	e.WriteUint32(a.MaxChunkCount)
	return e.Bytes()
}

// DecodeAcknowledge parses an Acknowledge body.
func DecodeAcknowledge(b []byte) (Acknowledge, error) {
	d := uatypes.NewDecoder(b)
	a := Acknowledge{
		Version:        d.ReadUint32(),
		ReceiveBufSize: d.ReadUint32(),
		SendBufSize:    d.ReadUint32(),
		MaxMessageSize: d.ReadUint32(),
		MaxChunkCount:  d.ReadUint32(),
	}
	return a, d.Err()
}

// ConnError is the UACP error message sent before closing a connection.
type ConnError struct {
	Code   uastatus.Code
	Reason string
}

// Encode serializes the error body.
func (c ConnError) Encode() []byte {
	e := uatypes.NewEncoder(8 + len(c.Reason))
	e.WriteStatus(c.Code)
	e.WriteString(c.Reason)
	return e.Bytes()
}

// DecodeConnError parses an error body.
func DecodeConnError(b []byte) (ConnError, error) {
	d := uatypes.NewDecoder(b)
	c := ConnError{Code: d.ReadStatus(), Reason: d.ReadString()}
	return c, d.Err()
}

// Error implements the error interface.
func (c ConnError) Error() string {
	if c.Reason == "" {
		return fmt.Sprintf("uacp error: %v", c.Code)
	}
	return fmt.Sprintf("uacp error: %v (%s)", c.Code, c.Reason)
}
