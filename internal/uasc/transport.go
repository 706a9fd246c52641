// Package uasc implements the OPC UA secure-conversation layer
// (OPC 10000-6): the UACP Hello/Acknowledge negotiation, chunked message
// framing, asymmetric-secured OpenSecureChannel exchanges and
// symmetric-secured MSG/CLO messages for all six security policies.
//
// One deliberate wire simplification: padding before the signature is
// encoded as the padding bytes followed by a fixed two-byte padding
// length. The specification instead uses a one-byte length with an
// optional extra byte for RSA keys over 2048 bits. Both ends of this
// stack share the simpler scheme; the security properties (sign-then-
// encrypt, block alignment) are unchanged.
package uasc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/uamsg"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// Limits are the negotiated UACP buffer limits.
type Limits struct {
	ReceiveBufSize uint32
	SendBufSize    uint32
	MaxMessageSize uint32
	MaxChunkCount  uint32
}

// DefaultLimits mirror the defaults of common OPC UA stacks.
func DefaultLimits() Limits {
	return Limits{
		ReceiveBufSize: 65535,
		SendBufSize:    65535,
		MaxMessageSize: 16 << 20,
		MaxChunkCount:  4096,
	}
}

const (
	chunkHeaderSize  = 8
	minChunkBufSize  = 8192
	maxHelloBodySize = 4096
	protocolVersion  = uamsg.ProtocolVersion

	// absoluteMaxFrameSize is the hard ceiling on any single frame,
	// applied even when a caller passes maxSize == 0 or limits were
	// never negotiated. A wire-claimed size is attacker-controlled; it
	// must never size an allocation unboundedly.
	absoluteMaxFrameSize = 16 << 20
)

// Errors returned by the transport.
var (
	ErrChunkTooLarge = errors.New("uasc: chunk exceeds negotiated buffer size")
	ErrTooManyChunks = errors.New("uasc: message exceeds chunk count limit")
	ErrMessageTooBig = errors.New("uasc: message exceeds size limit")
	ErrAborted       = errors.New("uasc: peer aborted message")
	ErrClosed        = errors.New("uasc: connection closed")
)

// Transport is a UACP connection after Hello/Acknowledge negotiation.
type Transport struct {
	Conn        net.Conn
	EndpointURL string // URL from Hello (server side) or dialed (client side)

	send Limits // limits for outgoing chunks (peer's receive capacity)
	recv Limits // limits for incoming chunks (our receive capacity)

	// readBuf is the chunk receive buffer reused across readChunk calls;
	// the secure-channel layer copies everything it keeps out of it. It
	// comes from readBufs on the first read and goes back on Release.
	readBuf *[]byte
}

// readBufs holds the receive buffers of transports whose reading
// goroutine is done with them, for later transports. A buffer has one
// owner at a time: the goroutine that reads a transport, until it calls
// Release.
var readBufs sync.Pool // of *[]byte

// Close closes the underlying connection. It may run on any goroutine:
// it leaves the receive buffer to the reading one, which may still be
// inside a read or decoding what it read (Release).
func (t *Transport) Close() error { return t.Conn.Close() }

// Release hands the transport's receive buffer to a later transport.
// Only the goroutine that reads the transport may call it, after its
// last read and once nothing it decoded aliases the buffer; a read
// after Release takes another buffer.
func (t *Transport) Release() {
	if t.readBuf != nil {
		readBufs.Put(t.readBuf)
		t.readBuf = nil
	}
}

// writeRaw writes one framed chunk: 3-byte type, 1-byte chunk flag,
// 4-byte total size, body.
func writeRaw(w io.Writer, msgType string, chunkType byte, body []byte) error {
	if len(msgType) != 3 {
		return fmt.Errorf("uasc: invalid message type %q", msgType)
	}
	frame := uatypes.AcquireEncoder(chunkHeaderSize + len(body))
	defer uatypes.ReleaseEncoder(frame)
	frame.WriteRawString(msgType)
	frame.WriteUint8(chunkType)
	frame.WriteUint32(uint32(chunkHeaderSize + len(body)))
	frame.WriteRaw(body)
	_, err := w.Write(frame.Bytes())
	return err
}

// rawChunk is one received frame.
type rawChunk struct {
	msgType   string
	chunkType byte
	body      []byte
}

// readRaw reads one framed chunk, enforcing maxSize on the total frame,
// into buf's storage when it holds the body. maxSize == 0 does not mean
// unlimited: absoluteMaxFrameSize always applies, so a hostile size
// claim can never drive the allocation.
func readRaw(r io.Reader, maxSize uint32, buf []byte) (rawChunk, error) {
	var hdr [chunkHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return rawChunk{}, err
	}
	size := binary.LittleEndian.Uint32(hdr[4:])
	if size < chunkHeaderSize {
		return rawChunk{}, fmt.Errorf("uasc: frame size %d too small", size)
	}
	if maxSize == 0 || maxSize > absoluteMaxFrameSize {
		maxSize = absoluteMaxFrameSize
	}
	if size > maxSize {
		return rawChunk{}, fmt.Errorf("%w: %d > %d", ErrChunkTooLarge, size, maxSize)
	}
	n := int(size - chunkHeaderSize)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return rawChunk{}, err
	}
	return rawChunk{
		msgType:   internMsgType(hdr[:3]),
		chunkType: hdr[3],
		body:      body,
	}, nil
}

// internMsgType maps the three header bytes onto the package's message
// type constants so per-chunk reads do not allocate a string.
func internMsgType(b []byte) string {
	switch {
	case string(b) == uamsg.MsgTypeMessage:
		return uamsg.MsgTypeMessage
	case string(b) == uamsg.MsgTypeOpen:
		return uamsg.MsgTypeOpen
	case string(b) == uamsg.MsgTypeClose:
		return uamsg.MsgTypeClose
	case string(b) == uamsg.MsgTypeError:
		return uamsg.MsgTypeError
	case string(b) == uamsg.MsgTypeHello:
		return uamsg.MsgTypeHello
	case string(b) == uamsg.MsgTypeAcknowledge:
		return uamsg.MsgTypeAcknowledge
	default:
		return string(b)
	}
}

// readChunk reads one framed chunk into the transport's reusable
// receive buffer, enforcing the negotiated receive size. The returned
// chunk body aliases that buffer and is valid only until the next
// readChunk call; callers copy what they keep.
func (t *Transport) readChunk() (rawChunk, error) {
	if t.readBuf == nil {
		if b, ok := readBufs.Get().(*[]byte); ok {
			t.readBuf = b
		} else {
			t.readBuf = new([]byte)
		}
	}
	c, err := readRaw(t.Conn, t.recv.ReceiveBufSize, *t.readBuf)
	if cap(c.body) > cap(*t.readBuf) {
		*t.readBuf = c.body
	}
	return c, err
}

// sendError transmits a UACP ERR message; used by servers before closing.
func sendError(w io.Writer, code uastatus.Code, reason string) error {
	return writeRaw(w, uamsg.MsgTypeError, uamsg.ChunkFinal,
		uamsg.ConnError{Code: code, Reason: reason}.Encode())
}

// ClientHello performs the client side of the UACP handshake.
func ClientHello(conn net.Conn, endpointURL string, want Limits) (*Transport, error) {
	if want.ReceiveBufSize < minChunkBufSize {
		want = DefaultLimits()
	}
	hello := uamsg.Hello{
		Version:        protocolVersion,
		ReceiveBufSize: want.ReceiveBufSize,
		SendBufSize:    want.SendBufSize,
		MaxMessageSize: want.MaxMessageSize,
		MaxChunkCount:  want.MaxChunkCount,
		EndpointURL:    endpointURL,
	}
	if err := writeRaw(conn, uamsg.MsgTypeHello, uamsg.ChunkFinal, hello.Encode()); err != nil {
		return nil, fmt.Errorf("uasc: sending hello: %w", err)
	}
	chunk, err := readRaw(conn, maxHelloBodySize, nil)
	if err != nil {
		return nil, fmt.Errorf("uasc: reading acknowledge: %w", err)
	}
	switch chunk.msgType {
	case uamsg.MsgTypeAcknowledge:
	case uamsg.MsgTypeError:
		if ce, err := uamsg.DecodeConnError(chunk.body); err == nil {
			return nil, ce
		}
		return nil, errors.New("uasc: malformed error response to hello")
	default:
		return nil, fmt.Errorf("uasc: unexpected %q response to hello", chunk.msgType)
	}
	ack, err := uamsg.DecodeAcknowledge(chunk.body)
	if err != nil {
		return nil, fmt.Errorf("uasc: malformed acknowledge: %w", err)
	}
	if ack.Version != protocolVersion {
		return nil, fmt.Errorf("uasc: unsupported protocol version %d", ack.Version)
	}
	return &Transport{
		Conn:        conn,
		EndpointURL: endpointURL,
		// We may send at most what the server can receive.
		send: Limits{
			ReceiveBufSize: ack.ReceiveBufSize,
			SendBufSize:    ack.ReceiveBufSize,
			MaxMessageSize: ack.MaxMessageSize,
			MaxChunkCount:  ack.MaxChunkCount,
		},
		recv: want,
	}, nil
}

// ServerHello performs the server side of the UACP handshake, revising
// the client's requested limits down to ours.
func ServerHello(conn net.Conn, ours Limits) (*Transport, error) {
	if ours.ReceiveBufSize < minChunkBufSize {
		ours = DefaultLimits()
	}
	chunk, err := readRaw(conn, maxHelloBodySize, nil)
	if err != nil {
		return nil, fmt.Errorf("uasc: reading hello: %w", err)
	}
	if chunk.msgType != uamsg.MsgTypeHello {
		_ = sendError(conn, uastatus.BadTcpMessageTypeInvalid, "expected HEL")
		return nil, fmt.Errorf("uasc: unexpected %q instead of hello", chunk.msgType)
	}
	hello, err := uamsg.DecodeHello(chunk.body)
	if err != nil {
		_ = sendError(conn, uastatus.BadDecodingError, "malformed HEL")
		return nil, fmt.Errorf("uasc: malformed hello: %w", err)
	}
	if hello.Version != protocolVersion {
		_ = sendError(conn, uastatus.BadProtocolVersionUnsupported, "")
		return nil, fmt.Errorf("uasc: unsupported protocol version %d", hello.Version)
	}
	ack := uamsg.Acknowledge{
		Version:        protocolVersion,
		ReceiveBufSize: minU32(ours.ReceiveBufSize, hello.SendBufSize),
		SendBufSize:    minU32(ours.SendBufSize, hello.ReceiveBufSize),
		MaxMessageSize: minNonZero(ours.MaxMessageSize, hello.MaxMessageSize),
		MaxChunkCount:  minNonZero(ours.MaxChunkCount, hello.MaxChunkCount),
	}
	if ack.ReceiveBufSize < minChunkBufSize || ack.SendBufSize < minChunkBufSize {
		_ = sendError(conn, uastatus.BadTcpNotEnoughResources, "buffer too small")
		return nil, errors.New("uasc: peer buffers below minimum")
	}
	if err := writeRaw(conn, uamsg.MsgTypeAcknowledge, uamsg.ChunkFinal, ack.Encode()); err != nil {
		return nil, fmt.Errorf("uasc: sending acknowledge: %w", err)
	}
	return &Transport{
		Conn:        conn,
		EndpointURL: hello.EndpointURL,
		send: Limits{
			ReceiveBufSize: ack.SendBufSize,
			SendBufSize:    ack.SendBufSize,
			MaxMessageSize: ack.MaxMessageSize,
			MaxChunkCount:  ack.MaxChunkCount,
		},
		recv: Limits{
			ReceiveBufSize: ack.ReceiveBufSize,
			SendBufSize:    ack.ReceiveBufSize,
			MaxMessageSize: ack.MaxMessageSize,
			MaxChunkCount:  ack.MaxChunkCount,
		},
	}, nil
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// minNonZero treats zero as "unlimited".
func minNonZero(a, b uint32) uint32 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	default:
		return minU32(a, b)
	}
}
