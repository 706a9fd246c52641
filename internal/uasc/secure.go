package uasc

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/memconn"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// ChannelSecurity selects the security applied to a channel.
type ChannelSecurity struct {
	Policy *uapolicy.Policy
	Mode   uamsg.MessageSecurityMode
	// LocalKey and LocalCertDER identify this side; required when the
	// policy is not None.
	LocalKey     *rsa.PrivateKey
	LocalCertDER []byte
	// RemoteCertDER is the peer certificate; required on the client when
	// the policy is not None, learned from the OPN on the server.
	RemoteCertDER []byte

	// Engine, when non-nil, memoizes the channel's RSA operations by key
	// fingerprint and input digest (campaign-scoped; see package uarsa).
	Engine *uarsa.Engine
	// Derive, when non-nil, makes the handshake deterministic: the
	// channel nonce, padding bytes and signature salts are drawn from
	// labeled substreams of this derivation instead of crypto/rand, and
	// OPN timestamps are pinned to uarsa.Epoch — equal channel
	// parameters then replay bit-identical OPN exchanges, which is what
	// makes the engine hit across waves (DESIGN.md §4). On the server
	// side Accept populates it from a digest of the client's OPN request.
	Derive *uarsa.Derivation

	// Metrics, when non-nil, observes the client handshake: attempt
	// count, OPN round-trip latency, and outcome, under the caller's
	// (policy, mode) scope. Purely observational — it never alters the
	// exchange — and nil (the default) costs one pointer check.
	Metrics *telemetry.ChannelMetrics
}

// CryptoContext assembles the uapolicy context for one labeled
// asymmetric operation on this channel: the engine plus, when the
// handshake is deterministic, the operation's own substream. Every call
// site uses a distinct label so a cache hit (which skips its random
// draws) can never shift the bytes another site sees.
func (cs *ChannelSecurity) CryptoContext(label string) uapolicy.CryptoContext {
	cc := uapolicy.CryptoContext{Engine: cs.Engine}
	if cs.Derive != nil {
		cc.Rand = cs.Derive.Stream(label)
	}
	return cc
}

// Channel is an established secure channel over a Transport.
type Channel struct {
	t   *Transport
	sec ChannelSecurity

	remote *uacert.Certificate // peer certificate; nil under an insecure policy

	ChannelID uint32
	TokenID   uint32

	sendSeq   uint32
	nextReqID uint32
	nonceSeq  uint32 // deterministic session-nonce draws (atomic)

	sendKeys *uapolicy.DerivedKeys
	recvKeys *uapolicy.DerivedKeys

	// parts is the message-reassembly buffer reused across Recv calls
	// (decoded messages never alias it; every decoder read copies), dec
	// the decoder of every message.
	parts []byte
	dec   uatypes.Decoder

	closed bool
}

// KnownIdentifiers sets the Known of the channel's decoder.
func (ch *Channel) KnownIdentifiers(known func(ns uint16, id []byte) (string, bool)) {
	ch.dec.Known = known
}

// Security returns the channel's security settings.
func (ch *Channel) Security() ChannelSecurity { return ch.sec }

// SessionNonce returns a fresh nonce for session-level challenges
// (CreateSession/ActivateSession responses). Deterministic channels
// derive it from the channel derivation — one labeled substream per
// draw, so a replayed request sequence replays identical nonces and the
// session signatures over them resolve from the crypto cache; other
// channels draw from crypto/rand as before.
func (ch *Channel) SessionNonce() []byte {
	if ch.sec.Policy.Insecure {
		return nil
	}
	if ch.sec.Derive == nil {
		return ch.sec.Policy.NewNonce()
	}
	n := atomic.AddUint32(&ch.nonceSeq, 1)
	return ch.sec.Policy.NonceFrom(ch.sec.Derive.Stream("session-nonce-" + strconv.FormatUint(uint64(n), 10)))
}

// CryptoContext exposes the channel's per-operation crypto context for
// asymmetric operations outside the OPN exchange (session signatures).
func (ch *Channel) CryptoContext(label string) uapolicy.CryptoContext {
	return ch.sec.CryptoContext(label)
}

const (
	sequenceHeaderSize = 8
	padLenFieldSize    = 2
	symHeaderSize      = 8 // channel id + token id
)

func encodeAsymHeader(policyURI string, senderCert, receiverThumb []byte) []byte {
	e := uatypes.NewEncoder(32 + len(policyURI) + len(senderCert))
	e.WriteString(policyURI)
	e.WriteByteString(senderCert)
	e.WriteByteString(receiverThumb)
	return e.Bytes()
}

type asymHeader struct {
	policyURI     string
	senderCert    []byte
	receiverThumb []byte
	length        int
}

func decodeAsymHeader(b []byte) (asymHeader, error) {
	d := uatypes.NewDecoder(b)
	h := asymHeader{
		policyURI:     d.ReadString(),
		senderCert:    d.ReadByteString(),
		receiverThumb: d.ReadByteString(),
	}
	h.length = d.Offset()
	return h, d.Err()
}

// sealOpts captures the cryptographic treatment of one chunk.
type sealOpts struct {
	encrypt    bool
	sign       bool
	signKey    *rsa.PrivateKey // asymmetric signing
	encryptKey *rsa.PublicKey  // asymmetric encryption
	symKeys    *uapolicy.DerivedKeys
	policy     *uapolicy.Policy
	// signCC/encCC carry the memo engine and per-operation deterministic
	// streams for the asymmetric (OPN) path; zero values compute
	// directly with crypto/rand.
	signCC uapolicy.CryptoContext
	encCC  uapolicy.CryptoContext
}

// seal assembles and secures one chunk into dst, which is reset first
// (callers keep one pooled encoder per message and reuse it across
// chunks). prefix is everything between the message header and the
// sequence header (channel/token ids plus, for OPN, the asymmetric
// security header). dst holds the full wire frame on success.
//
//studyvet:hotpath — per-chunk on every message both directions; TestSymEncryptSignAllocBudget budgets its allocs
func seal(dst *uatypes.Encoder, msgType string, chunkFlag byte, prefix, seqHdr, body []byte, o sealOpts) error {
	dst.Reset()

	var sigSize int
	if o.sign {
		if o.signKey != nil {
			sigSize = o.policy.AsymSignatureSize(&o.signKey.PublicKey)
		} else {
			sigSize = o.policy.SymSignatureSize()
		}
	}

	plainLen := sequenceHeaderSize + len(body)
	var msgSize, padLen, plainBlock, cipherBlock int
	if o.encrypt {
		var err error
		if o.encryptKey != nil {
			plainBlock, err = o.policy.AsymPlainBlockSize(o.encryptKey)
			if err != nil {
				return err
			}
			cipherBlock = o.policy.AsymCipherBlockSize(o.encryptKey)
		} else {
			plainBlock = o.policy.SymBlockSize()
			cipherBlock = plainBlock
		}
		unpadded := plainLen + padLenFieldSize + sigSize
		padLen = (plainBlock - unpadded%plainBlock) % plainBlock
		plainTotal := unpadded + padLen
		msgSize = chunkHeaderSize + len(prefix) + plainTotal/plainBlock*cipherBlock
	} else {
		msgSize = chunkHeaderSize + len(prefix) + plainLen + sigSize
	}

	dst.WriteRawString(msgType)
	dst.WriteUint8(chunkFlag)
	dst.WriteUint32(uint32(msgSize))
	dst.WriteRaw(prefix)
	securedStart := dst.Len()
	dst.WriteRaw(seqHdr)
	dst.WriteRaw(body)
	if o.encrypt {
		for i := 0; i < padLen; i++ {
			dst.WriteUint8(byte(padLen))
		}
		dst.WriteUint16(uint16(padLen))
	}
	if o.sign {
		var sig []byte
		var err error
		if o.signKey != nil {
			sig, err = o.policy.AsymSignCtx(o.signCC, o.signKey, dst.Bytes())
		} else {
			sig, err = o.policy.SymSign(o.symKeys, dst.Bytes())
		}
		if err != nil {
			return fmt.Errorf("uasc: signing chunk: %w", err) //studyvet:alloc-ok — failure path
		}
		dst.WriteRaw(sig)
	}
	if o.encrypt {
		secured := dst.Bytes()[securedStart:]
		if o.encryptKey != nil {
			ct, err := o.policy.AsymEncryptCtx(o.encCC, o.encryptKey, secured)
			if err != nil {
				return fmt.Errorf("uasc: encrypting chunk: %w", err) //studyvet:alloc-ok — failure path
			}
			dst.Truncate(securedStart)
			dst.WriteRaw(ct)
		} else {
			if err := o.policy.SymEncrypt(o.symKeys, secured); err != nil {
				return fmt.Errorf("uasc: encrypting chunk: %w", err) //studyvet:alloc-ok — failure path
			}
		}
	}
	if dst.Len() != msgSize {
		return fmt.Errorf("uasc: internal error: frame size %d != %d", dst.Len(), msgSize) //studyvet:alloc-ok — failure path
	}
	return nil
}

// openOpts captures the treatment of a received chunk.
type openOpts struct {
	encrypted  bool
	signed     bool
	verifyKey  *rsa.PublicKey  // asymmetric verification (sender's key)
	decryptKey *rsa.PrivateKey // asymmetric decryption (our key)
	symKeys    *uapolicy.DerivedKeys
	policy     *uapolicy.Policy
	// crypto memoizes the asymmetric decrypt/verify (no random source
	// needed on the receive path).
	crypto uapolicy.CryptoContext
}

// open verifies and decrypts a received chunk body (without the 8-byte
// message header) and returns sequence header and payload. The returned
// slices alias body (or, for asymmetric decryption, a fresh plaintext
// buffer); callers copy what they keep.
//
//studyvet:hotpath — per-chunk on every received message; pooled encoder keeps the verify reassembly alloc-free
func open(msgType string, chunkFlag byte, body []byte, prefixLen int, o openOpts) (seqHdr, payload []byte, err error) {
	if len(body) < prefixLen {
		return nil, nil, errors.New("uasc: chunk shorter than security header")
	}
	secured := body[prefixLen:]
	if o.encrypted {
		if o.decryptKey != nil {
			// A cached plaintext is shared across callers; this function
			// only re-slices it and every downstream decoder read copies,
			// so treating it as read-only holds.
			secured, err = o.policy.AsymDecryptCtx(o.crypto, o.decryptKey, secured)
		} else {
			err = o.policy.SymDecrypt(o.symKeys, secured)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("uasc: decrypting chunk: %w", err) //studyvet:alloc-ok — failure path
		}
	}
	if o.signed {
		var sigSize int
		if o.verifyKey != nil {
			sigSize = o.policy.AsymSignatureSize(o.verifyKey)
		} else {
			sigSize = o.policy.SymSignatureSize()
		}
		if len(secured) < sigSize {
			return nil, nil, errors.New("uasc: chunk shorter than signature")
		}
		sig := secured[len(secured)-sigSize:]
		// Reassemble exactly the bytes the sender signed: header with the
		// final frame size, plaintext prefix, secured region minus sig.
		signed := uatypes.AcquireEncoder(chunkHeaderSize + len(body))
		signed.WriteRawString(msgType)
		signed.WriteUint8(chunkFlag)
		signed.WriteUint32(uint32(chunkHeaderSize + len(body)))
		signed.WriteRaw(body[:prefixLen])
		signed.WriteRaw(secured[:len(secured)-sigSize])
		if o.verifyKey != nil {
			err = o.policy.AsymVerifyCtx(o.crypto, o.verifyKey, signed.Bytes(), sig)
		} else {
			err = o.policy.SymVerify(o.symKeys, signed.Bytes(), sig)
		}
		uatypes.ReleaseEncoder(signed)
		if err != nil {
			return nil, nil, fmt.Errorf("uasc: chunk signature: %w", err) //studyvet:alloc-ok — failure path
		}
		secured = secured[:len(secured)-sigSize]
	}
	if o.encrypted {
		if len(secured) < padLenFieldSize {
			return nil, nil, errors.New("uasc: chunk shorter than padding field")
		}
		padLen := int(binary.LittleEndian.Uint16(secured[len(secured)-padLenFieldSize:]))
		if padLen+padLenFieldSize > len(secured) {
			return nil, nil, errors.New("uasc: invalid padding length")
		}
		secured = secured[:len(secured)-padLenFieldSize-padLen]
	}
	if len(secured) < sequenceHeaderSize {
		return nil, nil, errors.New("uasc: chunk shorter than sequence header")
	}
	return secured[:sequenceHeaderSize], secured[sequenceHeaderSize:], nil
}

// --- Client side ---

// Open establishes a secure channel as a client. The transport must have
// completed the Hello/Acknowledge handshake. When sec.Metrics is set the
// whole handshake — OPN request, response, key derivation — is timed as
// one observation.
func Open(t *Transport, sec ChannelSecurity, lifetimeMS uint32) (*Channel, error) {
	begin := sec.Metrics.Begin()
	ch, err := openChannel(t, sec, lifetimeMS)
	sec.Metrics.Done(begin, err == nil)
	return ch, err
}

// openChannel is Open's body, unobserved.
func openChannel(t *Transport, sec ChannelSecurity, lifetimeMS uint32) (*Channel, error) {
	ch := &Channel{t: t, sec: sec, nextReqID: 1}
	if sec.Policy == nil {
		return nil, errors.New("uasc: nil policy")
	}
	if !sec.Policy.Insecure {
		if sec.LocalKey == nil || len(sec.LocalCertDER) == 0 {
			return nil, errors.New("uasc: policy requires a local certificate and key")
		}
		if len(sec.RemoteCertDER) == 0 {
			return nil, errors.New("uasc: policy requires the server certificate")
		}
		// Server certificates repeat heavily across grabs and waves (the
		// paper's Figure 5 reuse clusters), so the parse is memoized.
		remote, err := uacert.ParseCached(sec.RemoteCertDER)
		if err != nil {
			return nil, fmt.Errorf("uasc: server certificate: %w", err)
		}
		ch.remote = remote
	}

	var clientNonce []byte
	ts := memconn.ClockOf(t.Conn).Now()
	if sec.Derive != nil {
		// Deterministic handshake: nonce from the exchange derivation,
		// timestamp pinned, so equal channel parameters replay the
		// identical OPN request in every wave.
		clientNonce = sec.Policy.NonceFrom(sec.Derive.Stream("nonce"))
		ts = uarsa.Epoch
	} else {
		clientNonce = sec.Policy.NewNonce()
	}
	req := &uamsg.OpenSecureChannelRequest{
		Header: uamsg.RequestHeader{
			Timestamp:     ts,
			RequestHandle: 1,
			TimeoutHint:   30000,
		},
		ClientProtocolVer: protocolVersion,
		RequestType:       uamsg.SecurityTokenIssue,
		SecurityMode:      sec.Mode,
		ClientNonce:       clientNonce,
		RequestedLifetime: lifetimeMS,
	}
	reqID := ch.newRequestID()
	if err := ch.sendOPNMsg(reqID, req); err != nil {
		return nil, err
	}

	chunk, err := t.readChunk()
	if err != nil {
		return nil, fmt.Errorf("uasc: reading OPN response: %w", err)
	}
	if chunk.msgType == uamsg.MsgTypeError {
		if ce, derr := uamsg.DecodeConnError(chunk.body); derr == nil {
			return nil, ce
		}
		return nil, errors.New("uasc: malformed error during open")
	}
	if chunk.msgType != uamsg.MsgTypeOpen {
		return nil, fmt.Errorf("uasc: unexpected %q during open", chunk.msgType)
	}
	msg, err := ch.openOPN(chunk)
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*uamsg.OpenSecureChannelResponse)
	if !ok {
		if f, isFault := msg.(*uamsg.ServiceFault); isFault {
			return nil, fmt.Errorf("uasc: open rejected: %w", f.Header.ServiceResult)
		}
		return nil, fmt.Errorf("uasc: unexpected %T during open", msg)
	}
	if resp.Header.ServiceResult.IsBad() {
		return nil, fmt.Errorf("uasc: open rejected: %w", resp.Header.ServiceResult)
	}
	ch.ChannelID = resp.SecurityToken.ChannelID
	ch.TokenID = resp.SecurityToken.TokenID
	if !sec.Policy.Insecure {
		if ch.sendKeys, err = sec.Policy.DeriveKeys(resp.ServerNonce, clientNonce); err != nil {
			return nil, err
		}
		if ch.recvKeys, err = sec.Policy.DeriveKeys(clientNonce, resp.ServerNonce); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

func (ch *Channel) newRequestID() uint32 { return atomic.AddUint32(&ch.nextReqID, 1) }

func (ch *Channel) nextSeq() uint32 { return atomic.AddUint32(&ch.sendSeq, 1) }

// sendOPNMsg encodes and sends an OPN message body via a pooled buffer.
func (ch *Channel) sendOPNMsg(reqID uint32, msg uamsg.Message) error {
	e := uatypes.AcquireEncoder(256)
	defer uatypes.ReleaseEncoder(e)
	uamsg.EncodeTo(e, msg)
	return ch.sendOPN(reqID, e.Bytes())
}

// sendOPN sends an asymmetric-secured OPN chunk.
func (ch *Channel) sendOPN(reqID uint32, body []byte) error {
	var thumb []byte
	var senderCert []byte
	var encryptKey *rsa.PublicKey
	secure := !ch.sec.Policy.Insecure
	if secure {
		senderCert = ch.sec.LocalCertDER
		sum := ch.remote.Thumbprint()
		thumb = sum[:]
		encryptKey = ch.remote.PublicKey
	}
	hdr := encodeAsymHeader(ch.sec.Policy.URI, senderCert, thumb)
	prefix := make([]byte, 4, 4+len(hdr))
	binary.LittleEndian.PutUint32(prefix, ch.ChannelID)
	prefix = append(prefix, hdr...)

	var seqHdr [sequenceHeaderSize]byte
	binary.LittleEndian.PutUint32(seqHdr[:4], ch.nextSeq())
	binary.LittleEndian.PutUint32(seqHdr[4:], reqID)
	frame := uatypes.AcquireEncoder(chunkHeaderSize + len(prefix) + len(body) + 512)
	defer uatypes.ReleaseEncoder(frame)
	err := seal(frame, uamsg.MsgTypeOpen, uamsg.ChunkFinal, prefix,
		seqHdr[:], body, sealOpts{
			encrypt:    secure,
			sign:       secure,
			signKey:    ch.sec.LocalKey,
			encryptKey: encryptKey,
			policy:     ch.sec.Policy,
			signCC:     ch.sec.CryptoContext("opn-sign"),
			encCC:      ch.sec.CryptoContext("opn-enc"),
		})
	if err != nil {
		return err
	}
	if _, err := ch.t.Conn.Write(frame.Bytes()); err != nil {
		return fmt.Errorf("uasc: sending OPN: %w", err)
	}
	return nil
}

// openOPN verifies/decrypts a received OPN chunk and decodes its message.
func (ch *Channel) openOPN(chunk rawChunk) (uamsg.Message, error) {
	if len(chunk.body) < 4 {
		return nil, errors.New("uasc: OPN chunk too short")
	}
	hdr, err := decodeAsymHeader(chunk.body[4:])
	if err != nil {
		return nil, fmt.Errorf("uasc: OPN security header: %w", err)
	}
	if hdr.policyURI != ch.sec.Policy.URI {
		return nil, fmt.Errorf("uasc: OPN policy %q, expected %q", hdr.policyURI, ch.sec.Policy.URI)
	}
	secure := !ch.sec.Policy.Insecure
	var verifyKey *rsa.PublicKey
	if secure {
		sender, err := uacert.ParseCached(hdr.senderCert)
		if err != nil {
			return nil, fmt.Errorf("uasc: OPN sender certificate: %w", err)
		}
		verifyKey = sender.PublicKey
	}
	_, payload, err := open(chunk.msgType, chunk.chunkType, chunk.body, 4+hdr.length, openOpts{
		encrypted:  secure,
		signed:     secure,
		verifyKey:  verifyKey,
		decryptKey: ch.sec.LocalKey,
		policy:     ch.sec.Policy,
		crypto:     uapolicy.CryptoContext{Engine: ch.sec.Engine},
	})
	if err != nil {
		return nil, err
	}
	return uamsg.DecodeWith(&ch.dec, payload)
}

// maxChunkBody returns how many payload bytes fit into one MSG chunk.
func (ch *Channel) maxChunkBody() int {
	avail := int(ch.t.send.SendBufSize) - chunkHeaderSize - symHeaderSize - sequenceHeaderSize
	switch {
	case ch.sec.Mode == uamsg.SecurityModeSignAndEncrypt:
		block := ch.sec.Policy.SymBlockSize()
		avail -= ch.sec.Policy.SymSignatureSize() + padLenFieldSize + block
		avail = avail / block * block
	case ch.sec.Mode == uamsg.SecurityModeSign:
		avail -= ch.sec.Policy.SymSignatureSize()
	}
	if avail < 1 {
		avail = 1
	}
	return avail
}

// sendSecured sends a service message as one or more MSG/CLO chunks.
// One pooled frame buffer is reused across all chunks of the message.
func (ch *Channel) sendSecured(msgType string, reqID uint32, body []byte) error {
	maxBody := ch.maxChunkBody()
	nChunks := (len(body) + maxBody - 1) / maxBody
	if nChunks == 0 {
		nChunks = 1
	}
	if lim := ch.t.send.MaxChunkCount; lim > 0 && uint32(nChunks) > lim {
		return ErrTooManyChunks
	}
	var prefix [symHeaderSize]byte
	binary.LittleEndian.PutUint32(prefix[:4], ch.ChannelID)
	binary.LittleEndian.PutUint32(prefix[4:], ch.TokenID)

	opts := sealOpts{
		encrypt: ch.sec.Mode == uamsg.SecurityModeSignAndEncrypt,
		sign:    ch.sec.Mode != uamsg.SecurityModeNone,
		symKeys: ch.sendKeys,
		policy:  ch.sec.Policy,
	}
	frameCap := maxBody + chunkHeaderSize + symHeaderSize + sequenceHeaderSize + 256
	if len(body) < maxBody {
		frameCap = len(body) + chunkHeaderSize + symHeaderSize + sequenceHeaderSize + 256
	}
	frame := uatypes.AcquireEncoder(frameCap)
	defer uatypes.ReleaseEncoder(frame)
	var seqHdr [sequenceHeaderSize]byte
	for i := 0; i < nChunks; i++ {
		start := i * maxBody
		end := start + maxBody
		if end > len(body) {
			end = len(body)
		}
		flag := byte(uamsg.ChunkIntermediate)
		if i == nChunks-1 {
			flag = uamsg.ChunkFinal
		}
		binary.LittleEndian.PutUint32(seqHdr[:4], ch.nextSeq())
		binary.LittleEndian.PutUint32(seqHdr[4:], reqID)
		if err := seal(frame, msgType, flag, prefix[:], seqHdr[:], body[start:end], opts); err != nil {
			return err
		}
		if _, err := ch.t.Conn.Write(frame.Bytes()); err != nil {
			return fmt.Errorf("uasc: sending %s chunk: %w", msgType, err)
		}
	}
	return nil
}

// Received is one fully reassembled message.
type Received struct {
	MsgType   string // MSG, CLO or OPN (token renewal)
	RequestID uint32
	Message   uamsg.Message
}

// Recv reads and reassembles the next message from the peer.
func (ch *Channel) Recv() (Received, error) {
	parts := ch.parts[:0]
	defer func() { ch.parts = parts[:0] }()
	var reqID uint32
	var chunks uint32
	for {
		chunk, err := ch.t.readChunk()
		if err != nil {
			return Received{}, err
		}
		switch chunk.msgType {
		case uamsg.MsgTypeError:
			if ce, derr := uamsg.DecodeConnError(chunk.body); derr == nil {
				return Received{}, ce
			}
			return Received{}, errors.New("uasc: malformed ERR chunk")
		case uamsg.MsgTypeOpen:
			// Token renewal request mid-stream (server side).
			msg, err := ch.openOPN(chunk)
			if err != nil {
				return Received{}, err
			}
			return Received{MsgType: chunk.msgType, Message: msg}, nil
		case uamsg.MsgTypeMessage, uamsg.MsgTypeClose:
		default:
			return Received{}, fmt.Errorf("uasc: unexpected message type %q", chunk.msgType)
		}
		if chunk.chunkType == uamsg.ChunkAbort {
			return Received{}, ErrAborted
		}
		if len(chunk.body) < symHeaderSize {
			return Received{}, errors.New("uasc: chunk shorter than symmetric header")
		}
		gotChannel := binary.LittleEndian.Uint32(chunk.body[:4])
		gotToken := binary.LittleEndian.Uint32(chunk.body[4:8])
		if gotChannel != ch.ChannelID {
			return Received{}, fmt.Errorf("uasc: %w: channel %d", uastatus.BadSecureChannelIdInvalid, gotChannel)
		}
		if gotToken != ch.TokenID {
			return Received{}, fmt.Errorf("uasc: %w: token %d", uastatus.BadSecureChannelTokenUnknown, gotToken)
		}
		seqHdr, payload, err := open(chunk.msgType, chunk.chunkType, chunk.body, symHeaderSize, openOpts{
			encrypted: ch.sec.Mode == uamsg.SecurityModeSignAndEncrypt,
			signed:    ch.sec.Mode != uamsg.SecurityModeNone,
			symKeys:   ch.recvKeys,
			policy:    ch.sec.Policy,
		})
		if err != nil {
			return Received{}, err
		}
		id := binary.LittleEndian.Uint32(seqHdr[4:])
		if chunks == 0 {
			reqID = id
		} else if id != reqID {
			return Received{}, fmt.Errorf("uasc: interleaved request ids %d and %d", reqID, id)
		}
		body := payload // a one-chunk message decodes where it was read
		if chunks > 0 || chunk.chunkType != uamsg.ChunkFinal {
			parts = append(parts, payload...)
			body = parts
		}
		chunks++
		if lim := ch.t.recv.MaxChunkCount; lim > 0 && chunks > lim {
			return Received{}, ErrTooManyChunks
		}
		if lim := ch.t.recv.MaxMessageSize; lim > 0 && uint32(len(body)) > lim {
			return Received{}, ErrMessageTooBig
		}
		if chunk.chunkType == uamsg.ChunkFinal {
			msg, err := uamsg.DecodeWith(&ch.dec, body)
			if err != nil {
				return Received{}, err
			}
			return Received{MsgType: chunk.msgType, RequestID: reqID, Message: msg}, nil
		}
	}
}

// Request sends a service request and waits for its response.
func (ch *Channel) Request(req uamsg.Request) (uamsg.Message, error) {
	reqID := ch.newRequestID()
	if err := ch.sendMsg(uamsg.MsgTypeMessage, reqID, req); err != nil {
		return nil, err
	}
	for {
		got, err := ch.Recv()
		if err != nil {
			return nil, err
		}
		if got.RequestID == reqID {
			return got.Message, nil
		}
	}
}

// sendMsg encodes a service message into a pooled buffer and sends it
// as MSG/CLO chunks.
func (ch *Channel) sendMsg(msgType string, reqID uint32, msg uamsg.Message) error {
	e := uatypes.AcquireEncoder(512)
	defer uatypes.ReleaseEncoder(e)
	uamsg.EncodeTo(e, msg)
	return ch.sendSecured(msgType, reqID, e.Bytes())
}

// SendResponse sends a service response for the given request id.
func (ch *Channel) SendResponse(reqID uint32, resp uamsg.Message) error {
	return ch.sendMsg(uamsg.MsgTypeMessage, reqID, resp)
}

// Close sends a CloseSecureChannel request and closes the transport.
func (ch *Channel) Close() error {
	if ch.closed {
		return ErrClosed
	}
	ch.closed = true
	req := &uamsg.CloseSecureChannelRequest{
		Header: uamsg.RequestHeader{Timestamp: memconn.ClockOf(ch.t.Conn).Now()},
	}
	_ = ch.sendMsg(uamsg.MsgTypeClose, ch.newRequestID(), req)
	return ch.t.Close()
}

// --- Server side ---

// ServerConfig configures secure-channel acceptance.
type ServerConfig struct {
	Key     *rsa.PrivateKey
	CertDER []byte
	// AllowedModes returns the modes the server's endpoints advertise for
	// the policy, or nil if the policy is not offered.
	AllowedModes func(policy *uapolicy.Policy) []uamsg.MessageSecurityMode
	// ValidateClientCert decides whether the client certificate is
	// accepted. A nil func accepts everything.
	ValidateClientCert func(der []byte) uastatus.Code
	LifetimeMS         uint32

	// Engine, when non-nil, memoizes the server's RSA operations
	// (campaign-scoped; see package uarsa).
	Engine *uarsa.Engine
	// Deterministic derives the server's nonce, padding, salts, channel
	// id and timestamps from a digest of the client's OPN request, so a
	// bit-identical request replays a bit-identical response — the
	// cross-wave hit condition for the crypto cache (DESIGN.md §4).
	Deterministic bool
}

var channelIDCounter atomic.Uint32

// Accept performs the server side of secure-channel establishment.
func Accept(t *Transport, cfg ServerConfig) (*Channel, error) {
	chunk, err := t.readChunk()
	if err != nil {
		return nil, fmt.Errorf("uasc: reading OPN: %w", err)
	}
	if chunk.msgType != uamsg.MsgTypeOpen {
		_ = sendError(t.Conn, uastatus.BadTcpMessageTypeInvalid, "expected OPN")
		return nil, fmt.Errorf("uasc: unexpected %q instead of OPN", chunk.msgType)
	}
	if len(chunk.body) < 4 {
		return nil, errors.New("uasc: OPN chunk too short")
	}
	hdr, err := decodeAsymHeader(chunk.body[4:])
	if err != nil {
		_ = sendError(t.Conn, uastatus.BadDecodingError, "bad OPN header")
		return nil, fmt.Errorf("uasc: OPN security header: %w", err)
	}
	policy, ok := uapolicy.Lookup(hdr.policyURI)
	if !ok {
		_ = sendError(t.Conn, uastatus.BadSecurityPolicyRejected, "unknown policy")
		return nil, fmt.Errorf("uasc: unknown policy %q", hdr.policyURI)
	}
	modes := cfg.AllowedModes(policy)
	if len(modes) == 0 {
		_ = sendError(t.Conn, uastatus.BadSecurityPolicyRejected, "policy not offered")
		return nil, fmt.Errorf("uasc: policy %s not offered", policy.Name)
	}

	ch := &Channel{t: t, sec: ChannelSecurity{
		Policy:       policy,
		LocalKey:     cfg.Key,
		LocalCertDER: cfg.CertDER,
		Engine:       cfg.Engine,
	}}
	if cfg.Deterministic && !policy.Insecure {
		// The response becomes a pure function of the request: every
		// random draw below comes from this request-digest derivation, so
		// a client replaying a bit-identical OPN request (deterministic
		// scanners do, across waves) receives bit-identical bytes and the
		// whole exchange resolves from the crypto cache.
		d := uarsa.Digest([]byte(chunk.msgType), []byte{chunk.chunkType}, chunk.body)
		ch.sec.Derive = uarsa.NewDerivation([]byte("uasc-server"), d[:])
	}
	var clientPub *rsa.PublicKey
	if !policy.Insecure {
		if len(hdr.senderCert) == 0 {
			_ = sendError(t.Conn, uastatus.BadSecurityChecksFailed, "missing client certificate")
			return nil, errors.New("uasc: client sent no certificate")
		}
		if cfg.ValidateClientCert != nil {
			if code := cfg.ValidateClientCert(hdr.senderCert); code.IsBad() {
				_ = sendError(t.Conn, code, "client certificate rejected")
				return nil, fmt.Errorf("uasc: client certificate rejected: %w", code)
			}
		}
		// The scanner presents one self-signed certificate to every
		// server it probes; memoizing the parse turns the per-connection
		// cost into a cache hit.
		clientCert, err := uacert.ParseCached(hdr.senderCert)
		if err != nil {
			_ = sendError(t.Conn, uastatus.BadCertificateInvalid, "unparseable certificate")
			return nil, fmt.Errorf("uasc: client certificate: %w", err)
		}
		clientPub = clientCert.PublicKey
		ch.sec.RemoteCertDER = hdr.senderCert
		ch.remote = clientCert
	}

	_, payload, err := open(chunk.msgType, chunk.chunkType, chunk.body, 4+hdr.length, openOpts{
		encrypted:  !policy.Insecure,
		signed:     !policy.Insecure,
		verifyKey:  clientPub,
		decryptKey: cfg.Key,
		policy:     policy,
		crypto:     uapolicy.CryptoContext{Engine: cfg.Engine},
	})
	if err != nil {
		_ = sendError(t.Conn, uastatus.BadSecurityChecksFailed, "OPN security failure")
		return nil, err
	}
	msg, err := uamsg.DecodeWith(&ch.dec, payload)
	if err != nil {
		_ = sendError(t.Conn, uastatus.BadDecodingError, "bad OPN body")
		return nil, err
	}
	req, ok := msg.(*uamsg.OpenSecureChannelRequest)
	if !ok {
		_ = sendError(t.Conn, uastatus.BadTcpMessageTypeInvalid, "expected OpenSecureChannelRequest")
		return nil, fmt.Errorf("uasc: unexpected %T in OPN", msg)
	}
	modeOK := false
	for _, m := range modes {
		if m == req.SecurityMode {
			modeOK = true
			break
		}
	}
	if !modeOK {
		_ = sendError(t.Conn, uastatus.BadSecurityModeRejected, "mode not offered")
		return nil, fmt.Errorf("uasc: mode %v not offered with policy %s", req.SecurityMode, policy.Name)
	}
	ch.sec.Mode = req.SecurityMode

	var serverNonce []byte
	now := memconn.ClockOf(t.Conn).Now()
	if ch.sec.Derive != nil {
		// Channel-id collisions across connections are harmless: each
		// connection carries exactly one channel and peers only check
		// their own ids.
		id := ch.sec.Derive.Uint32("channel-id")
		if id == 0 {
			id = 1
		}
		ch.ChannelID = id
		serverNonce = policy.NonceFrom(ch.sec.Derive.Stream("nonce"))
		now = uarsa.Epoch
	} else {
		ch.ChannelID = channelIDCounter.Add(1)
		serverNonce = policy.NewNonce()
	}
	ch.TokenID = 1
	lifetime := req.RequestedLifetime
	if cfg.LifetimeMS > 0 && (lifetime == 0 || lifetime > cfg.LifetimeMS) {
		lifetime = cfg.LifetimeMS
	}
	resp := &uamsg.OpenSecureChannelResponse{
		Header: uamsg.ResponseHeader{
			Timestamp:     now,
			RequestHandle: req.Header.RequestHandle,
			ServiceResult: uastatus.Good,
		},
		ServerProtocolVer: protocolVersion,
		SecurityToken: uamsg.ChannelSecurityToken{
			ChannelID:       ch.ChannelID,
			TokenID:         ch.TokenID,
			CreatedAt:       now,
			RevisedLifetime: lifetime,
		},
		ServerNonce: serverNonce,
	}
	if !policy.Insecure {
		if ch.recvKeys, err = policy.DeriveKeys(serverNonce, req.ClientNonce); err != nil {
			return nil, err
		}
		if ch.sendKeys, err = policy.DeriveKeys(req.ClientNonce, serverNonce); err != nil {
			return nil, err
		}
	}
	if err := ch.sendOPNMsg(1, resp); err != nil {
		return nil, err
	}
	return ch, nil
}
