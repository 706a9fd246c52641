package uamsg

import (
	"fmt"

	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// Binary encoding node ids of the service messages (OPC 10000-6 Annex A).
const (
	IDServiceFault               = 397
	IDFindServersRequest         = 422
	IDFindServersResponse        = 425
	IDGetEndpointsRequest        = 428
	IDGetEndpointsResponse       = 431
	IDOpenSecureChannelRequest   = 446
	IDOpenSecureChannelResponse  = 449
	IDCloseSecureChannelRequest  = 452
	IDCloseSecureChannelResponse = 455
	IDCreateSessionRequest       = 461
	IDCreateSessionResponse      = 464
	IDActivateSessionRequest     = 467
	IDActivateSessionResponse    = 470
	IDCloseSessionRequest        = 473
	IDCloseSessionResponse       = 476
	IDBrowseRequest              = 527
	IDBrowseResponse             = 530
	IDBrowseNextRequest          = 533
	IDBrowseNextResponse         = 536
	IDReadRequest                = 631
	IDReadResponse               = 634
	IDCallRequest                = 710
	IDCallResponse               = 713
)

// Message is a service request or response body.
type Message interface {
	// TypeID returns the numeric binary-encoding node id.
	TypeID() uint32
	encodeBody(e *uatypes.Encoder)
}

// Request is a service request carrying a RequestHeader.
type Request interface {
	Message
	RequestHeader() *RequestHeader
}

// Response is a service response carrying a ResponseHeader.
type Response interface {
	Message
	ResponseHeader() *ResponseHeader
}

// Encode serializes a message as NodeID + body, the payload format of
// secure-channel messages.
func Encode(m Message) []byte {
	e := uatypes.NewEncoder(256)
	EncodeTo(e, m)
	return e.Bytes()
}

// EncodeTo serializes a message into an existing encoder, letting hot
// paths reuse pooled buffers (uatypes.AcquireEncoder) instead of
// allocating one per message like Encode.
func EncodeTo(e *uatypes.Encoder, m Message) {
	uatypes.NewNumericNodeID(0, m.TypeID()).Encode(e)
	m.encodeBody(e)
}

// PreEncodedResponse is a service response whose body after the
// ResponseHeader was encoded ahead of time. Simulated servers use it to
// serve per-wave-immutable payloads (endpoint tables with embedded
// certificates, discovery listings) from cached bytes while the header
// — timestamp and request handle — stays fresh per request. The wire
// encoding is byte-identical to encoding the equivalent structured
// response.
type PreEncodedResponse struct {
	ID     uint32 // numeric binary-encoding node id of the response type
	Header ResponseHeader
	Suffix []byte // encoded body after the header; must not be mutated
}

// TypeID implements Message.
func (m *PreEncodedResponse) TypeID() uint32 { return m.ID }

// ResponseHeader implements Response.
func (m *PreEncodedResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *PreEncodedResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteRaw(m.Suffix)
}

// EncodeEndpointsArray returns the wire encoding of an
// EndpointDescription array — the cacheable suffix of a
// GetEndpointsResponse.
func EncodeEndpointsArray(eps []EndpointDescription) []byte {
	e := uatypes.NewEncoder(512)
	writeEndpointArray(e, eps)
	return e.Bytes()
}

// EncodeServersArray returns the wire encoding of an
// ApplicationDescription array — the cacheable suffix of a
// FindServersResponse.
func EncodeServersArray(servers []ApplicationDescription) []byte {
	e := uatypes.NewEncoder(256)
	if servers == nil {
		e.WriteInt32(-1)
		return e.Bytes()
	}
	e.WriteInt32(int32(len(servers)))
	for _, s := range servers {
		s.encode(e)
	}
	return e.Bytes()
}

// Decode parses a NodeID-prefixed message body.
func Decode(b []byte) (Message, error) { return DecodeWith(new(uatypes.Decoder), b) }

// DecodeWith is Decode on d, which it resets to b: a connection keeps
// one decoder for every message it receives.
func DecodeWith(d *uatypes.Decoder, b []byte) (Message, error) {
	d.Reset(b)
	id := uatypes.DecodeNodeID(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	dec, ok := decoders[id.Numeric]
	if !ok || id.Namespace != 0 {
		return nil, fmt.Errorf("uamsg: unknown message type id %v", id)
	}
	m := dec(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("uamsg: decoding %T: %w", m, err)
	}
	return m, nil
}

var decoders = map[uint32]func(*uatypes.Decoder) Message{
	IDServiceFault:               decodeServiceFault,
	IDFindServersRequest:         decodeFindServersRequest,
	IDFindServersResponse:        decodeFindServersResponse,
	IDGetEndpointsRequest:        decodeGetEndpointsRequest,
	IDGetEndpointsResponse:       decodeGetEndpointsResponse,
	IDOpenSecureChannelRequest:   decodeOpenSecureChannelRequest,
	IDOpenSecureChannelResponse:  decodeOpenSecureChannelResponse,
	IDCloseSecureChannelRequest:  decodeCloseSecureChannelRequest,
	IDCloseSecureChannelResponse: decodeCloseSecureChannelResponse,
	IDCreateSessionRequest:       decodeCreateSessionRequest,
	IDCreateSessionResponse:      decodeCreateSessionResponse,
	IDActivateSessionRequest:     decodeActivateSessionRequest,
	IDActivateSessionResponse:    decodeActivateSessionResponse,
	IDCloseSessionRequest:        decodeCloseSessionRequest,
	IDCloseSessionResponse:       decodeCloseSessionResponse,
	IDBrowseRequest:              decodeBrowseRequest,
	IDBrowseResponse:             decodeBrowseResponse,
	IDBrowseNextRequest:          decodeBrowseNextRequest,
	IDBrowseNextResponse:         decodeBrowseNextResponse,
	IDReadRequest:                decodeReadRequest,
	IDReadResponse:               decodeReadResponse,
	IDCallRequest:                decodeCallRequest,
	IDCallResponse:               decodeCallResponse,
}

// ServiceFault reports a service-level failure.
type ServiceFault struct {
	Header ResponseHeader
}

// TypeID implements Message.
func (*ServiceFault) TypeID() uint32 { return IDServiceFault }

// ResponseHeader implements Response.
func (m *ServiceFault) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *ServiceFault) encodeBody(e *uatypes.Encoder) { m.Header.encode(e) }

func decodeServiceFault(d *uatypes.Decoder) Message {
	return &ServiceFault{Header: decodeResponseHeader(d)}
}

// FindServersRequest queries a (discovery) server for known servers.
type FindServersRequest struct {
	Header      RequestHeader
	EndpointURL string
	LocaleIDs   []string
	ServerURIs  []string
}

// TypeID implements Message.
func (*FindServersRequest) TypeID() uint32 { return IDFindServersRequest }

// RequestHeader implements Request.
func (m *FindServersRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *FindServersRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteString(m.EndpointURL)
	writeStringArray(e, m.LocaleIDs)
	writeStringArray(e, m.ServerURIs)
}

func decodeFindServersRequest(d *uatypes.Decoder) Message {
	return &FindServersRequest{
		Header:      decodeRequestHeader(d),
		EndpointURL: d.ReadString(),
		LocaleIDs:   readStringArray(d),
		ServerURIs:  readStringArray(d),
	}
}

// FindServersResponse lists the applications a discovery server knows.
type FindServersResponse struct {
	Header  ResponseHeader
	Servers []ApplicationDescription
}

// TypeID implements Message.
func (*FindServersResponse) TypeID() uint32 { return IDFindServersResponse }

// ResponseHeader implements Response.
func (m *FindServersResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *FindServersResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	if m.Servers == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(m.Servers)))
	for _, s := range m.Servers {
		s.encode(e)
	}
}

func decodeFindServersResponse(d *uatypes.Decoder) Message {
	m := &FindServersResponse{Header: decodeResponseHeader(d)}
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Servers = append(m.Servers, decodeApplicationDescription(d))
	}
	return m
}

// GetEndpointsRequest asks a server for its endpoint descriptions. It is
// answered without security, which is what makes the study possible.
type GetEndpointsRequest struct {
	Header      RequestHeader
	EndpointURL string
	LocaleIDs   []string
	ProfileURIs []string
}

// TypeID implements Message.
func (*GetEndpointsRequest) TypeID() uint32 { return IDGetEndpointsRequest }

// RequestHeader implements Request.
func (m *GetEndpointsRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *GetEndpointsRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteString(m.EndpointURL)
	writeStringArray(e, m.LocaleIDs)
	writeStringArray(e, m.ProfileURIs)
}

func decodeGetEndpointsRequest(d *uatypes.Decoder) Message {
	return &GetEndpointsRequest{
		Header:      decodeRequestHeader(d),
		EndpointURL: d.ReadString(),
		LocaleIDs:   readStringArray(d),
		ProfileURIs: readStringArray(d),
	}
}

// GetEndpointsResponse carries the advertised endpoints.
type GetEndpointsResponse struct {
	Header    ResponseHeader
	Endpoints []EndpointDescription
}

// TypeID implements Message.
func (*GetEndpointsResponse) TypeID() uint32 { return IDGetEndpointsResponse }

// ResponseHeader implements Response.
func (m *GetEndpointsResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *GetEndpointsResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	writeEndpointArray(e, m.Endpoints)
}

func decodeGetEndpointsResponse(d *uatypes.Decoder) Message {
	return &GetEndpointsResponse{
		Header:    decodeResponseHeader(d),
		Endpoints: readEndpointArray(d),
	}
}

// OpenSecureChannelRequest establishes or renews a secure channel.
type OpenSecureChannelRequest struct {
	Header            RequestHeader
	ClientProtocolVer uint32
	RequestType       SecurityTokenRequestType
	SecurityMode      MessageSecurityMode
	ClientNonce       []byte
	RequestedLifetime uint32
}

// TypeID implements Message.
func (*OpenSecureChannelRequest) TypeID() uint32 { return IDOpenSecureChannelRequest }

// RequestHeader implements Request.
func (m *OpenSecureChannelRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *OpenSecureChannelRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteUint32(m.ClientProtocolVer)
	e.WriteUint32(uint32(m.RequestType))
	e.WriteUint32(uint32(m.SecurityMode))
	e.WriteByteString(m.ClientNonce)
	e.WriteUint32(m.RequestedLifetime)
}

func decodeOpenSecureChannelRequest(d *uatypes.Decoder) Message {
	return &OpenSecureChannelRequest{
		Header:            decodeRequestHeader(d),
		ClientProtocolVer: d.ReadUint32(),
		RequestType:       SecurityTokenRequestType(d.ReadUint32()),
		SecurityMode:      MessageSecurityMode(d.ReadUint32()),
		ClientNonce:       d.ReadByteString(),
		RequestedLifetime: d.ReadUint32(),
	}
}

// OpenSecureChannelResponse returns the issued channel token.
type OpenSecureChannelResponse struct {
	Header            ResponseHeader
	ServerProtocolVer uint32
	SecurityToken     ChannelSecurityToken
	ServerNonce       []byte
}

// TypeID implements Message.
func (*OpenSecureChannelResponse) TypeID() uint32 { return IDOpenSecureChannelResponse }

// ResponseHeader implements Response.
func (m *OpenSecureChannelResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *OpenSecureChannelResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteUint32(m.ServerProtocolVer)
	m.SecurityToken.encode(e)
	e.WriteByteString(m.ServerNonce)
}

func decodeOpenSecureChannelResponse(d *uatypes.Decoder) Message {
	return &OpenSecureChannelResponse{
		Header:            decodeResponseHeader(d),
		ServerProtocolVer: d.ReadUint32(),
		SecurityToken:     decodeChannelSecurityToken(d),
		ServerNonce:       d.ReadByteString(),
	}
}

// CloseSecureChannelRequest tears down a secure channel.
type CloseSecureChannelRequest struct {
	Header RequestHeader
}

// TypeID implements Message.
func (*CloseSecureChannelRequest) TypeID() uint32 { return IDCloseSecureChannelRequest }

// RequestHeader implements Request.
func (m *CloseSecureChannelRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *CloseSecureChannelRequest) encodeBody(e *uatypes.Encoder) { m.Header.encode(e) }

func decodeCloseSecureChannelRequest(d *uatypes.Decoder) Message {
	return &CloseSecureChannelRequest{Header: decodeRequestHeader(d)}
}

// CloseSecureChannelResponse acknowledges channel teardown.
type CloseSecureChannelResponse struct {
	Header ResponseHeader
}

// TypeID implements Message.
func (*CloseSecureChannelResponse) TypeID() uint32 { return IDCloseSecureChannelResponse }

// ResponseHeader implements Response.
func (m *CloseSecureChannelResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *CloseSecureChannelResponse) encodeBody(e *uatypes.Encoder) { m.Header.encode(e) }

func decodeCloseSecureChannelResponse(d *uatypes.Decoder) Message {
	return &CloseSecureChannelResponse{Header: decodeResponseHeader(d)}
}

// CreateSessionRequest opens an application session on a secure channel.
type CreateSessionRequest struct {
	Header                  RequestHeader
	ClientDescription       ApplicationDescription
	ServerURI               string
	EndpointURL             string
	SessionName             string
	ClientNonce             []byte
	ClientCertificate       []byte
	RequestedSessionTimeout float64
	MaxResponseMessageSize  uint32
}

// TypeID implements Message.
func (*CreateSessionRequest) TypeID() uint32 { return IDCreateSessionRequest }

// RequestHeader implements Request.
func (m *CreateSessionRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *CreateSessionRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	m.ClientDescription.encode(e)
	e.WriteString(m.ServerURI)
	e.WriteString(m.EndpointURL)
	e.WriteString(m.SessionName)
	e.WriteByteString(m.ClientNonce)
	e.WriteByteString(m.ClientCertificate)
	e.WriteFloat64(m.RequestedSessionTimeout)
	e.WriteUint32(m.MaxResponseMessageSize)
}

func decodeCreateSessionRequest(d *uatypes.Decoder) Message {
	return &CreateSessionRequest{
		Header:                  decodeRequestHeader(d),
		ClientDescription:       decodeApplicationDescription(d),
		ServerURI:               d.ReadString(),
		EndpointURL:             d.ReadString(),
		SessionName:             d.ReadString(),
		ClientNonce:             d.ReadByteString(),
		ClientCertificate:       d.ReadByteString(),
		RequestedSessionTimeout: d.ReadFloat64(),
		MaxResponseMessageSize:  d.ReadUint32(),
	}
}

// CreateSessionResponse returns session ids and the server's signature
// over the client nonce.
type CreateSessionResponse struct {
	Header                ResponseHeader
	SessionID             uatypes.NodeID
	AuthenticationToken   uatypes.NodeID
	RevisedSessionTimeout float64
	ServerNonce           []byte
	ServerCertificate     []byte
	ServerEndpoints       []EndpointDescription
	ServerSignature       SignatureData
	MaxRequestMessageSize uint32
}

// TypeID implements Message.
func (*CreateSessionResponse) TypeID() uint32 { return IDCreateSessionResponse }

// ResponseHeader implements Response.
func (m *CreateSessionResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *CreateSessionResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	m.SessionID.Encode(e)
	m.AuthenticationToken.Encode(e)
	e.WriteFloat64(m.RevisedSessionTimeout)
	e.WriteByteString(m.ServerNonce)
	e.WriteByteString(m.ServerCertificate)
	writeEndpointArray(e, m.ServerEndpoints)
	e.WriteInt32(-1) // ServerSoftwareCertificates (unused)
	m.ServerSignature.encode(e)
	e.WriteUint32(m.MaxRequestMessageSize)
}

func decodeCreateSessionResponse(d *uatypes.Decoder) Message {
	m := &CreateSessionResponse{
		Header:                decodeResponseHeader(d),
		SessionID:             uatypes.DecodeNodeID(d),
		AuthenticationToken:   uatypes.DecodeNodeID(d),
		RevisedSessionTimeout: d.ReadFloat64(),
		ServerNonce:           d.ReadByteString(),
		ServerCertificate:     d.ReadByteString(),
		ServerEndpoints:       readEndpointArray(d),
	}
	n := d.ReadArrayLen() // software certificates
	for i := 0; i < n && d.Err() == nil; i++ {
		d.ReadByteString()
		d.ReadByteString()
	}
	m.ServerSignature = decodeSignatureData(d)
	m.MaxRequestMessageSize = d.ReadUint32()
	return m
}

// ActivateSessionRequest authenticates the session user.
type ActivateSessionRequest struct {
	Header             RequestHeader
	ClientSignature    SignatureData
	LocaleIDs          []string
	UserIdentityToken  uatypes.ExtensionObject
	UserTokenSignature SignatureData
}

// TypeID implements Message.
func (*ActivateSessionRequest) TypeID() uint32 { return IDActivateSessionRequest }

// RequestHeader implements Request.
func (m *ActivateSessionRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *ActivateSessionRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	m.ClientSignature.encode(e)
	e.WriteInt32(-1) // ClientSoftwareCertificates (unused)
	writeStringArray(e, m.LocaleIDs)
	m.UserIdentityToken.Encode(e)
	m.UserTokenSignature.encode(e)
}

func decodeActivateSessionRequest(d *uatypes.Decoder) Message {
	m := &ActivateSessionRequest{
		Header:          decodeRequestHeader(d),
		ClientSignature: decodeSignatureData(d),
	}
	n := d.ReadArrayLen() // software certificates
	for i := 0; i < n && d.Err() == nil; i++ {
		d.ReadByteString()
		d.ReadByteString()
	}
	m.LocaleIDs = readStringArray(d)
	m.UserIdentityToken = uatypes.DecodeExtensionObject(d)
	m.UserTokenSignature = decodeSignatureData(d)
	return m
}

// ActivateSessionResponse completes authentication.
type ActivateSessionResponse struct {
	Header      ResponseHeader
	ServerNonce []byte
	Results     []uastatus.Code
}

// TypeID implements Message.
func (*ActivateSessionResponse) TypeID() uint32 { return IDActivateSessionResponse }

// ResponseHeader implements Response.
func (m *ActivateSessionResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *ActivateSessionResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteByteString(m.ServerNonce)
	writeStatusArray(e, m.Results)
	writeDiagArray(e)
}

func decodeActivateSessionResponse(d *uatypes.Decoder) Message {
	m := &ActivateSessionResponse{
		Header:      decodeResponseHeader(d),
		ServerNonce: d.ReadByteString(),
		Results:     readStatusArray(d),
	}
	readDiagArray(d)
	return m
}

// CloseSessionRequest ends a session.
type CloseSessionRequest struct {
	Header              RequestHeader
	DeleteSubscriptions bool
}

// TypeID implements Message.
func (*CloseSessionRequest) TypeID() uint32 { return IDCloseSessionRequest }

// RequestHeader implements Request.
func (m *CloseSessionRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *CloseSessionRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteBool(m.DeleteSubscriptions)
}

func decodeCloseSessionRequest(d *uatypes.Decoder) Message {
	return &CloseSessionRequest{
		Header:              decodeRequestHeader(d),
		DeleteSubscriptions: d.ReadBool(),
	}
}

// CloseSessionResponse acknowledges session teardown.
type CloseSessionResponse struct {
	Header ResponseHeader
}

// TypeID implements Message.
func (*CloseSessionResponse) TypeID() uint32 { return IDCloseSessionResponse }

// ResponseHeader implements Response.
func (m *CloseSessionResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *CloseSessionResponse) encodeBody(e *uatypes.Encoder) { m.Header.encode(e) }

func decodeCloseSessionResponse(d *uatypes.Decoder) Message {
	return &CloseSessionResponse{Header: decodeResponseHeader(d)}
}

// BrowseRequest asks for the references of a set of nodes.
type BrowseRequest struct {
	Header        RequestHeader
	View          ViewDescription
	MaxReferences uint32
	NodesToBrowse []BrowseDescription
}

// TypeID implements Message.
func (*BrowseRequest) TypeID() uint32 { return IDBrowseRequest }

// RequestHeader implements Request.
func (m *BrowseRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *BrowseRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	m.View.encode(e)
	e.WriteUint32(m.MaxReferences)
	if m.NodesToBrowse == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(m.NodesToBrowse)))
	for _, b := range m.NodesToBrowse {
		b.encode(e)
	}
}

func decodeBrowseRequest(d *uatypes.Decoder) Message {
	m := &BrowseRequest{
		Header:        decodeRequestHeader(d),
		View:          decodeViewDescription(d),
		MaxReferences: d.ReadUint32(),
	}
	n := d.ReadArrayLenOf(minBrowseDescriptionWire)
	if n > 0 {
		m.NodesToBrowse = make([]BrowseDescription, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		m.NodesToBrowse = append(m.NodesToBrowse, decodeBrowseDescription(d))
	}
	return m
}

// BrowseResponse carries per-node reference listings.
type BrowseResponse struct {
	Header  ResponseHeader
	Results []BrowseResult
}

// TypeID implements Message.
func (*BrowseResponse) TypeID() uint32 { return IDBrowseResponse }

// ResponseHeader implements Response.
func (m *BrowseResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *BrowseResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	writeBrowseResults(e, m.Results)
	writeDiagArray(e)
}

func decodeBrowseResponse(d *uatypes.Decoder) Message {
	m := &BrowseResponse{
		Header:  decodeResponseHeader(d),
		Results: readBrowseResults(d),
	}
	readDiagArray(d)
	return m
}

// BrowseNextRequest continues a Browse with continuation points.
type BrowseNextRequest struct {
	Header             RequestHeader
	ReleasePoints      bool
	ContinuationPoints [][]byte
}

// TypeID implements Message.
func (*BrowseNextRequest) TypeID() uint32 { return IDBrowseNextRequest }

// RequestHeader implements Request.
func (m *BrowseNextRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *BrowseNextRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteBool(m.ReleasePoints)
	writeByteStringArray(e, m.ContinuationPoints)
}

func decodeBrowseNextRequest(d *uatypes.Decoder) Message {
	return &BrowseNextRequest{
		Header:             decodeRequestHeader(d),
		ReleasePoints:      d.ReadBool(),
		ContinuationPoints: readByteStringArray(d),
	}
}

// BrowseNextResponse carries continued reference listings.
type BrowseNextResponse struct {
	Header  ResponseHeader
	Results []BrowseResult
}

// TypeID implements Message.
func (*BrowseNextResponse) TypeID() uint32 { return IDBrowseNextResponse }

// ResponseHeader implements Response.
func (m *BrowseNextResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *BrowseNextResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	writeBrowseResults(e, m.Results)
	writeDiagArray(e)
}

func decodeBrowseNextResponse(d *uatypes.Decoder) Message {
	m := &BrowseNextResponse{
		Header:  decodeResponseHeader(d),
		Results: readBrowseResults(d),
	}
	readDiagArray(d)
	return m
}

// ReadRequest reads node attributes.
type ReadRequest struct {
	Header      RequestHeader
	MaxAge      float64
	Timestamps  TimestampsToReturn
	NodesToRead []ReadValueID
}

// TypeID implements Message.
func (*ReadRequest) TypeID() uint32 { return IDReadRequest }

// RequestHeader implements Request.
func (m *ReadRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *ReadRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	e.WriteFloat64(m.MaxAge)
	e.WriteUint32(uint32(m.Timestamps))
	if m.NodesToRead == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(m.NodesToRead)))
	for _, r := range m.NodesToRead {
		r.encode(e)
	}
}

func decodeReadRequest(d *uatypes.Decoder) Message {
	m := &ReadRequest{
		Header:     decodeRequestHeader(d),
		MaxAge:     d.ReadFloat64(),
		Timestamps: TimestampsToReturn(d.ReadUint32()),
	}
	n := d.ReadArrayLenOf(minReadValueIDWire)
	if n > 0 {
		m.NodesToRead = make([]ReadValueID, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		m.NodesToRead = append(m.NodesToRead, decodeReadValueID(d))
	}
	return m
}

// ReadResponse carries the read results.
type ReadResponse struct {
	Header  ResponseHeader
	Results []uatypes.DataValue
}

// TypeID implements Message.
func (*ReadResponse) TypeID() uint32 { return IDReadResponse }

// ResponseHeader implements Response.
func (m *ReadResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *ReadResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	if m.Results == nil {
		e.WriteInt32(-1)
	} else {
		e.WriteInt32(int32(len(m.Results)))
		for _, v := range m.Results {
			v.Encode(e)
		}
	}
	writeDiagArray(e)
}

func decodeReadResponse(d *uatypes.Decoder) Message {
	m := &ReadResponse{Header: decodeResponseHeader(d)}
	m.Results = uatypes.DecodeDataValues(d, d.ReadArrayLenOf(minDataValueWire))
	readDiagArray(d)
	return m
}

// CallRequest invokes methods.
type CallRequest struct {
	Header        RequestHeader
	MethodsToCall []CallMethodRequest
}

// TypeID implements Message.
func (*CallRequest) TypeID() uint32 { return IDCallRequest }

// RequestHeader implements Request.
func (m *CallRequest) RequestHeader() *RequestHeader { return &m.Header }

func (m *CallRequest) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	if m.MethodsToCall == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(m.MethodsToCall)))
	for _, c := range m.MethodsToCall {
		c.encode(e)
	}
}

func decodeCallRequest(d *uatypes.Decoder) Message {
	m := &CallRequest{Header: decodeRequestHeader(d)}
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		m.MethodsToCall = append(m.MethodsToCall, decodeCallMethodRequest(d))
	}
	return m
}

// CallResponse carries the per-method results.
type CallResponse struct {
	Header  ResponseHeader
	Results []CallMethodResult
}

// TypeID implements Message.
func (*CallResponse) TypeID() uint32 { return IDCallResponse }

// ResponseHeader implements Response.
func (m *CallResponse) ResponseHeader() *ResponseHeader { return &m.Header }

func (m *CallResponse) encodeBody(e *uatypes.Encoder) {
	m.Header.encode(e)
	if m.Results == nil {
		e.WriteInt32(-1)
	} else {
		e.WriteInt32(int32(len(m.Results)))
		for _, r := range m.Results {
			r.encode(e)
		}
	}
	writeDiagArray(e)
}

func decodeCallResponse(d *uatypes.Decoder) Message {
	m := &CallResponse{Header: decodeResponseHeader(d)}
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Results = append(m.Results, decodeCallMethodResult(d))
	}
	readDiagArray(d)
	return m
}
