package uamsg

import (
	"time"

	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// RequestHeader precedes every service request (OPC 10000-4 §7.33).
type RequestHeader struct {
	AuthenticationToken uatypes.NodeID
	Timestamp           time.Time
	RequestHandle       uint32
	ReturnDiagnostics   uint32
	AuditEntryID        string
	TimeoutHint         uint32
}

func (h RequestHeader) encode(e *uatypes.Encoder) {
	h.AuthenticationToken.Encode(e)
	e.WriteTime(h.Timestamp)
	e.WriteUint32(h.RequestHandle)
	e.WriteUint32(h.ReturnDiagnostics)
	if h.AuditEntryID == "" {
		e.WriteNullString()
	} else {
		e.WriteString(h.AuditEntryID)
	}
	e.WriteUint32(h.TimeoutHint)
	uatypes.ExtensionObject{}.Encode(e) // AdditionalHeader
}

func decodeRequestHeader(d *uatypes.Decoder) RequestHeader {
	var h RequestHeader
	h.AuthenticationToken = uatypes.DecodeNodeID(d)
	h.Timestamp = d.ReadTime()
	h.RequestHandle = d.ReadUint32()
	h.ReturnDiagnostics = d.ReadUint32()
	h.AuditEntryID = d.ReadString()
	h.TimeoutHint = d.ReadUint32()
	uatypes.DecodeExtensionObject(d)
	return h
}

// ResponseHeader precedes every service response.
type ResponseHeader struct {
	Timestamp     time.Time
	RequestHandle uint32
	ServiceResult uastatus.Code
	StringTable   []string
}

func (h ResponseHeader) encode(e *uatypes.Encoder) {
	e.WriteTime(h.Timestamp)
	e.WriteUint32(h.RequestHandle)
	e.WriteStatus(h.ServiceResult)
	uatypes.EncodeNullDiagnosticInfo(e) // ServiceDiagnostics
	writeStringArray(e, h.StringTable)
	uatypes.ExtensionObject{}.Encode(e) // AdditionalHeader
}

func decodeResponseHeader(d *uatypes.Decoder) ResponseHeader {
	var h ResponseHeader
	h.Timestamp = d.ReadTime()
	h.RequestHandle = d.ReadUint32()
	h.ServiceResult = d.ReadStatus()
	uatypes.DecodeDiagnosticInfo(d)
	h.StringTable = readStringArray(d)
	uatypes.DecodeExtensionObject(d)
	return h
}

func writeStringArray(e *uatypes.Encoder, ss []string) {
	if ss == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

func readStringArray(d *uatypes.Decoder) []string {
	n := d.ReadArrayLen()
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.ReadString())
	}
	return out
}

func writeByteStringArray(e *uatypes.Encoder, bs [][]byte) {
	if bs == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(bs)))
	for _, b := range bs {
		e.WriteByteString(b)
	}
}

func readByteStringArray(d *uatypes.Decoder) [][]byte {
	n := d.ReadArrayLen()
	if n <= 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.ReadByteString())
	}
	return out
}

func writeStatusArray(e *uatypes.Encoder, cs []uastatus.Code) {
	if cs == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(cs)))
	for _, c := range cs {
		e.WriteStatus(c)
	}
}

func readStatusArray(d *uatypes.Decoder) []uastatus.Code {
	n := d.ReadArrayLen()
	if n <= 0 {
		return nil
	}
	out := make([]uastatus.Code, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.ReadStatus())
	}
	return out
}

// writeDiagArray encodes a null DiagnosticInfo array.
func writeDiagArray(e *uatypes.Encoder) { e.WriteInt32(-1) }

func readDiagArray(d *uatypes.Decoder) {
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		uatypes.DecodeDiagnosticInfo(d)
	}
}

// ApplicationDescription describes a client or server application
// (OPC 10000-4 §7.1). The study clusters hosts by ApplicationURI.
type ApplicationDescription struct {
	ApplicationURI      string
	ProductURI          string
	ApplicationName     uatypes.LocalizedText
	ApplicationType     ApplicationType
	GatewayServerURI    string
	DiscoveryProfileURI string
	DiscoveryURLs       []string
}

func (a ApplicationDescription) encode(e *uatypes.Encoder) {
	e.WriteString(a.ApplicationURI)
	e.WriteString(a.ProductURI)
	a.ApplicationName.Encode(e)
	e.WriteUint32(uint32(a.ApplicationType))
	e.WriteString(a.GatewayServerURI)
	e.WriteString(a.DiscoveryProfileURI)
	writeStringArray(e, a.DiscoveryURLs)
}

func decodeApplicationDescription(d *uatypes.Decoder) ApplicationDescription {
	var a ApplicationDescription
	a.ApplicationURI = d.ReadString()
	a.ProductURI = d.ReadString()
	a.ApplicationName = uatypes.DecodeLocalizedText(d)
	a.ApplicationType = ApplicationType(d.ReadUint32())
	a.GatewayServerURI = d.ReadString()
	a.DiscoveryProfileURI = d.ReadString()
	a.DiscoveryURLs = readStringArray(d)
	return a
}

// UserTokenPolicy describes one accepted authentication option
// (OPC 10000-4 §7.37).
type UserTokenPolicy struct {
	PolicyID          string
	TokenType         UserTokenType
	IssuedTokenType   string
	IssuerEndpointURL string
	SecurityPolicyURI string
}

func (p UserTokenPolicy) encode(e *uatypes.Encoder) {
	e.WriteString(p.PolicyID)
	e.WriteUint32(uint32(p.TokenType))
	e.WriteString(p.IssuedTokenType)
	e.WriteString(p.IssuerEndpointURL)
	e.WriteString(p.SecurityPolicyURI)
}

func decodeUserTokenPolicy(d *uatypes.Decoder) UserTokenPolicy {
	var p UserTokenPolicy
	p.PolicyID = d.ReadString()
	p.TokenType = UserTokenType(d.ReadUint32())
	p.IssuedTokenType = d.ReadString()
	p.IssuerEndpointURL = d.ReadString()
	p.SecurityPolicyURI = d.ReadString()
	return p
}

// EndpointDescription advertises one endpoint with its security
// configuration (OPC 10000-4 §7.10). This is the study's central object.
type EndpointDescription struct {
	EndpointURL         string
	Server              ApplicationDescription
	ServerCertificate   []byte
	SecurityMode        MessageSecurityMode
	SecurityPolicyURI   string
	UserIdentityTokens  []UserTokenPolicy
	TransportProfileURI string
	SecurityLevel       byte
}

func (ep EndpointDescription) encode(e *uatypes.Encoder) {
	e.WriteString(ep.EndpointURL)
	ep.Server.encode(e)
	e.WriteByteString(ep.ServerCertificate)
	e.WriteUint32(uint32(ep.SecurityMode))
	e.WriteString(ep.SecurityPolicyURI)
	if ep.UserIdentityTokens == nil {
		e.WriteInt32(-1)
	} else {
		e.WriteInt32(int32(len(ep.UserIdentityTokens)))
		for _, p := range ep.UserIdentityTokens {
			p.encode(e)
		}
	}
	e.WriteString(ep.TransportProfileURI)
	e.WriteUint8(ep.SecurityLevel)
}

func decodeEndpointDescription(d *uatypes.Decoder) EndpointDescription {
	var ep EndpointDescription
	ep.EndpointURL = d.ReadString()
	ep.Server = decodeApplicationDescription(d)
	ep.ServerCertificate = d.ReadByteString()
	ep.SecurityMode = MessageSecurityMode(d.ReadUint32())
	ep.SecurityPolicyURI = d.ReadString()
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		ep.UserIdentityTokens = append(ep.UserIdentityTokens, decodeUserTokenPolicy(d))
	}
	ep.TransportProfileURI = d.ReadString()
	ep.SecurityLevel = d.ReadUint8()
	return ep
}

func writeEndpointArray(e *uatypes.Encoder, eps []EndpointDescription) {
	if eps == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(eps)))
	for _, ep := range eps {
		ep.encode(e)
	}
}

func readEndpointArray(d *uatypes.Decoder) []EndpointDescription {
	n := d.ReadArrayLen()
	if n <= 0 {
		return nil
	}
	out := make([]EndpointDescription, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decodeEndpointDescription(d))
	}
	return out
}

// SignatureData carries a signature and the algorithm that produced it.
type SignatureData struct {
	Algorithm string
	Signature []byte
}

func (s SignatureData) encode(e *uatypes.Encoder) {
	if s.Algorithm == "" {
		e.WriteNullString()
	} else {
		e.WriteString(s.Algorithm)
	}
	e.WriteByteString(s.Signature)
}

func decodeSignatureData(d *uatypes.Decoder) SignatureData {
	return SignatureData{Algorithm: d.ReadString(), Signature: d.ReadByteString()}
}

// ChannelSecurityToken identifies an issued secure-channel token.
type ChannelSecurityToken struct {
	ChannelID       uint32
	TokenID         uint32
	CreatedAt       time.Time
	RevisedLifetime uint32 // milliseconds
}

func (t ChannelSecurityToken) encode(e *uatypes.Encoder) {
	e.WriteUint32(t.ChannelID)
	e.WriteUint32(t.TokenID)
	e.WriteTime(t.CreatedAt)
	e.WriteUint32(t.RevisedLifetime)
}

func decodeChannelSecurityToken(d *uatypes.Decoder) ChannelSecurityToken {
	var t ChannelSecurityToken
	t.ChannelID = d.ReadUint32()
	t.TokenID = d.ReadUint32()
	t.CreatedAt = d.ReadTime()
	t.RevisedLifetime = d.ReadUint32()
	return t
}

// ViewDescription selects a view for Browse; the study always browses the
// whole address space (null view).
type ViewDescription struct {
	ViewID      uatypes.NodeID
	Timestamp   time.Time
	ViewVersion uint32
}

func (v ViewDescription) encode(e *uatypes.Encoder) {
	v.ViewID.Encode(e)
	e.WriteTime(v.Timestamp)
	e.WriteUint32(v.ViewVersion)
}

func decodeViewDescription(d *uatypes.Decoder) ViewDescription {
	var v ViewDescription
	v.ViewID = uatypes.DecodeNodeID(d)
	v.Timestamp = d.ReadTime()
	v.ViewVersion = d.ReadUint32()
	return v
}

// BrowseDescription names a node whose references Browse returns.
type BrowseDescription struct {
	NodeID          uatypes.NodeID
	Direction       BrowseDirection
	ReferenceTypeID uatypes.NodeID
	IncludeSubtypes bool
	NodeClassMask   uint32
	ResultMask      uint32
}

func (b BrowseDescription) encode(e *uatypes.Encoder) {
	b.NodeID.Encode(e)
	e.WriteUint32(uint32(b.Direction))
	b.ReferenceTypeID.Encode(e)
	e.WriteBool(b.IncludeSubtypes)
	e.WriteUint32(b.NodeClassMask)
	e.WriteUint32(b.ResultMask)
}

// Minimum wire sizes of the array elements on the browse/read path: what
// uatypes.Decoder.ReadArrayLenOf divides the remaining bytes by before a
// decoder sizes its slice from a claimed length. Each is the encoding of
// the all-null value (two-byte node ids, null strings, empty masks).
const (
	minBrowseDescriptionWire    = 2 + 4 + 2 + 1 + 4 + 4     // node id, direction, reference type, subtypes, two masks
	minReferenceDescriptionWire = 2 + 1 + 2 + 6 + 1 + 4 + 2 // type, forward, target, browse name, display name, class, type definition
	minBrowseResultWire         = 4 + 4 + 4                 // status, continuation point, reference count
	minReadValueIDWire          = 2 + 4 + 4 + 6             // node id, attribute, index range, data encoding
	minDataValueWire            = 1                         // encoding mask alone
)

func decodeBrowseDescription(d *uatypes.Decoder) BrowseDescription {
	var b BrowseDescription
	b.NodeID = uatypes.DecodeNodeID(d)
	b.Direction = BrowseDirection(d.ReadUint32())
	b.ReferenceTypeID = uatypes.DecodeNodeID(d)
	b.IncludeSubtypes = d.ReadBool()
	b.NodeClassMask = d.ReadUint32()
	b.ResultMask = d.ReadUint32()
	return b
}

// ReferenceDescription is one Browse result entry.
type ReferenceDescription struct {
	ReferenceTypeID uatypes.NodeID
	IsForward       bool
	NodeID          uatypes.ExpandedNodeID
	BrowseName      uatypes.QualifiedName
	DisplayName     uatypes.LocalizedText
	NodeClass       NodeClass
	TypeDefinition  uatypes.ExpandedNodeID
}

func (r ReferenceDescription) encode(e *uatypes.Encoder) {
	r.ReferenceTypeID.Encode(e)
	e.WriteBool(r.IsForward)
	r.NodeID.Encode(e)
	r.BrowseName.Encode(e)
	r.DisplayName.Encode(e)
	e.WriteUint32(uint32(r.NodeClass))
	r.TypeDefinition.Encode(e)
}

func decodeReferenceDescription(d *uatypes.Decoder) ReferenceDescription {
	var r ReferenceDescription
	r.ReferenceTypeID = uatypes.DecodeNodeID(d)
	r.IsForward = d.ReadBool()
	r.NodeID = uatypes.DecodeExpandedNodeID(d)
	r.BrowseName = uatypes.DecodeQualifiedName(d)
	r.DisplayName = uatypes.DecodeLocalizedText(d)
	r.NodeClass = NodeClass(d.ReadUint32())
	r.TypeDefinition = uatypes.DecodeExpandedNodeID(d)
	return r
}

// BrowseResult is the per-node outcome of a Browse request.
type BrowseResult struct {
	Status            uastatus.Code
	ContinuationPoint []byte
	References        []ReferenceDescription
}

func (b BrowseResult) encode(e *uatypes.Encoder) {
	e.WriteStatus(b.Status)
	e.WriteByteString(b.ContinuationPoint)
	if b.References == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(b.References)))
	for _, r := range b.References {
		r.encode(e)
	}
}

func decodeBrowseResult(d *uatypes.Decoder) BrowseResult {
	var b BrowseResult
	b.Status = d.ReadStatus()
	b.ContinuationPoint = d.ReadByteString()
	n := d.ReadArrayLenOf(minReferenceDescriptionWire)
	if n > 0 {
		b.References = make([]ReferenceDescription, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		b.References = append(b.References, decodeReferenceDescription(d))
	}
	return b
}

func writeBrowseResults(e *uatypes.Encoder, rs []BrowseResult) {
	if rs == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(rs)))
	for _, r := range rs {
		r.encode(e)
	}
}

func readBrowseResults(d *uatypes.Decoder) []BrowseResult {
	n := d.ReadArrayLenOf(minBrowseResultWire)
	if n <= 0 {
		return nil
	}
	out := make([]BrowseResult, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decodeBrowseResult(d))
	}
	return out
}

// ReadValueID names one node attribute to read.
type ReadValueID struct {
	NodeID       uatypes.NodeID
	AttributeID  AttributeID
	IndexRange   string
	DataEncoding uatypes.QualifiedName
}

func (r ReadValueID) encode(e *uatypes.Encoder) {
	r.NodeID.Encode(e)
	e.WriteUint32(uint32(r.AttributeID))
	if r.IndexRange == "" {
		e.WriteNullString()
	} else {
		e.WriteString(r.IndexRange)
	}
	r.DataEncoding.Encode(e)
}

func decodeReadValueID(d *uatypes.Decoder) ReadValueID {
	var r ReadValueID
	r.NodeID = uatypes.DecodeNodeID(d)
	r.AttributeID = AttributeID(d.ReadUint32())
	r.IndexRange = d.ReadString()
	r.DataEncoding = uatypes.DecodeQualifiedName(d)
	return r
}

// CallMethodRequest names one method invocation.
type CallMethodRequest struct {
	ObjectID       uatypes.NodeID
	MethodID       uatypes.NodeID
	InputArguments []uatypes.Variant
}

func (c CallMethodRequest) encode(e *uatypes.Encoder) {
	c.ObjectID.Encode(e)
	c.MethodID.Encode(e)
	if c.InputArguments == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(c.InputArguments)))
	for _, v := range c.InputArguments {
		v.Encode(e)
	}
}

func decodeCallMethodRequest(d *uatypes.Decoder) CallMethodRequest {
	var c CallMethodRequest
	c.ObjectID = uatypes.DecodeNodeID(d)
	c.MethodID = uatypes.DecodeNodeID(d)
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		c.InputArguments = append(c.InputArguments, uatypes.DecodeVariant(d))
	}
	return c
}

// CallMethodResult is the per-method outcome of a Call request.
type CallMethodResult struct {
	Status          uastatus.Code
	InputArgResults []uastatus.Code
	OutputArguments []uatypes.Variant
}

func (c CallMethodResult) encode(e *uatypes.Encoder) {
	e.WriteStatus(c.Status)
	writeStatusArray(e, c.InputArgResults)
	writeDiagArray(e)
	if c.OutputArguments == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(c.OutputArguments)))
	for _, v := range c.OutputArguments {
		v.Encode(e)
	}
}

func decodeCallMethodResult(d *uatypes.Decoder) CallMethodResult {
	var c CallMethodResult
	c.Status = d.ReadStatus()
	c.InputArgResults = readStatusArray(d)
	readDiagArray(d)
	n := d.ReadArrayLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		c.OutputArguments = append(c.OutputArguments, uatypes.DecodeVariant(d))
	}
	return c
}

// Identity tokens (OPC 10000-4 §7.36). They travel inside an
// ExtensionObject in ActivateSession.

// AnonymousIdentityToken requests anonymous access.
type AnonymousIdentityToken struct {
	PolicyID string
}

// UserNameIdentityToken authenticates with a username and password.
type UserNameIdentityToken struct {
	PolicyID            string
	UserName            string
	Password            []byte
	EncryptionAlgorithm string
}

// X509IdentityToken authenticates with a client certificate.
type X509IdentityToken struct {
	PolicyID        string
	CertificateData []byte
}

// IssuedIdentityToken authenticates with an externally issued token.
type IssuedIdentityToken struct {
	PolicyID            string
	TokenData           []byte
	EncryptionAlgorithm string
}

// Binary encoding ids for identity tokens.
const (
	IDAnonymousIdentityToken = 321
	IDUserNameIdentityToken  = 324
	IDX509IdentityToken      = 327
	IDIssuedIdentityToken    = 940
)

// EncodeIdentityToken wraps an identity token into an ExtensionObject.
// Supported types: *AnonymousIdentityToken, *UserNameIdentityToken,
// *X509IdentityToken, *IssuedIdentityToken.
func EncodeIdentityToken(tok any) uatypes.ExtensionObject {
	e := uatypes.NewEncoder(64)
	switch t := tok.(type) {
	case *AnonymousIdentityToken:
		e.WriteString(t.PolicyID)
		return uatypes.NewExtensionObject(IDAnonymousIdentityToken, e.Bytes())
	case *UserNameIdentityToken:
		e.WriteString(t.PolicyID)
		e.WriteString(t.UserName)
		e.WriteByteString(t.Password)
		e.WriteString(t.EncryptionAlgorithm)
		return uatypes.NewExtensionObject(IDUserNameIdentityToken, e.Bytes())
	case *X509IdentityToken:
		e.WriteString(t.PolicyID)
		e.WriteByteString(t.CertificateData)
		return uatypes.NewExtensionObject(IDX509IdentityToken, e.Bytes())
	case *IssuedIdentityToken:
		e.WriteString(t.PolicyID)
		e.WriteByteString(t.TokenData)
		e.WriteString(t.EncryptionAlgorithm)
		return uatypes.NewExtensionObject(IDIssuedIdentityToken, e.Bytes())
	default:
		return uatypes.ExtensionObject{}
	}
}

// DecodeIdentityToken unwraps an identity token ExtensionObject. It
// returns nil if the object is empty or of unknown type.
func DecodeIdentityToken(x uatypes.ExtensionObject) any {
	if x.Encoding != uatypes.ExtensionObjectByteString {
		return nil
	}
	d := uatypes.NewDecoder(x.Body)
	switch x.TypeID.NodeID.Numeric {
	case IDAnonymousIdentityToken:
		return &AnonymousIdentityToken{PolicyID: d.ReadString()}
	case IDUserNameIdentityToken:
		return &UserNameIdentityToken{
			PolicyID:            d.ReadString(),
			UserName:            d.ReadString(),
			Password:            d.ReadByteString(),
			EncryptionAlgorithm: d.ReadString(),
		}
	case IDX509IdentityToken:
		return &X509IdentityToken{
			PolicyID:        d.ReadString(),
			CertificateData: d.ReadByteString(),
		}
	case IDIssuedIdentityToken:
		return &IssuedIdentityToken{
			PolicyID:            d.ReadString(),
			TokenData:           d.ReadByteString(),
			EncryptionAlgorithm: d.ReadString(),
		}
	default:
		return nil
	}
}
