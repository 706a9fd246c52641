// Package uaserver implements a full OPC UA server on top of the secure
// channel layer: endpoint advertisement, sessions with all four
// authentication token types, per-node access control, method calls,
// discovery servers, and the configuration quirks the paper observes in
// the wild (client-certificate rejection, sessions that fail despite
// advertised anonymous access).
package uaserver

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/memconn"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
	"repro/internal/uasc"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// EndpointConfig advertises one security policy with a set of modes.
type EndpointConfig struct {
	Policy *uapolicy.Policy
	Modes  []uamsg.MessageSecurityMode
}

// Quirks reproduce misconfiguration behaviours from the paper.
type Quirks struct {
	// RejectClientCert aborts secure-channel establishment with
	// BadSecurityChecksFailed when the client presents a certificate
	// (the paper's "Certificate not accepted" hosts, Figure 6 right).
	RejectClientCert bool
	// RejectSessions makes CreateSession fail despite advertised
	// authentication options (the paper's hosts "aborting the connection
	// due to a faulty or incomplete endpoint configuration").
	RejectSessions bool
}

// Config describes one server instance.
type Config struct {
	ApplicationURI  string
	ProductURI      string
	ApplicationName string
	SoftwareVersion string
	// EndpointURL is the URL advertised in endpoint descriptions, e.g.
	// "opc.tcp://192.0.2.7:4840". Additional URLs (possibly on other
	// hosts/ports, which the scanner follows) go to ExtraEndpointURLs.
	EndpointURL       string
	ExtraEndpointURLs []string

	Endpoints  []EndpointConfig
	TokenTypes []uamsg.UserTokenType
	// Users validates UserName tokens; nil rejects all credentials.
	Users map[string]string

	Key     *rsa.PrivateKey
	CertDER []byte

	Space  *addrspace.Space
	Quirks Quirks

	// Discovery marks a discovery server: it answers GetEndpoints /
	// FindServers but refuses sessions (the paper's 42% of hosts).
	Discovery bool
	// KnownServers are returned by FindServers on discovery servers.
	KnownServers []uamsg.ApplicationDescription

	// MaxRefsPerBrowse bounds references per Browse result before
	// continuation points are used.
	MaxRefsPerBrowse int
	// MaxNodesPerBrowse bounds the operations of one Browse request the
	// way real servers' OperationLimits do: a longer NodesToBrowse is
	// answered with a BadTooManyOperations fault. 0 means unlimited.
	MaxNodesPerBrowse int
	// MaxContinuationPoints bounds the continuation points one session
	// may hold undrained; a Browse result that would need one more gets
	// BadNoContinuationPoints and no references. 0 means unlimited.
	MaxContinuationPoints int
}

// Server is a running OPC UA server.
type Server struct {
	cfg       Config
	endpoints []uamsg.EndpointDescription
	appDesc   uamsg.ApplicationDescription

	// Response caches: the endpoint table and discovery listing are
	// fixed at construction (per wave state — the world builds one
	// server per certificate/software revision), so their wire
	// encodings — including the embedded certificate chain — are
	// produced once here and served as cached bytes. Only the response
	// header (timestamp, request handle) is encoded per request; nonces
	// and signatures never live in these messages. A connection reads
	// them only under ConnOptions.CachedResponses, so the reference
	// serving encodes the structured response on the same instance.
	epSuffix []byte // GetEndpointsResponse body after the header
	fsSuffix []byte // FindServersResponse body after the header

	sessionCounter atomic.Uint32
}

// New validates the configuration and builds the endpoint table.
func New(cfg Config) (*Server, error) {
	if cfg.EndpointURL == "" {
		return nil, errors.New("uaserver: EndpointURL required")
	}
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("uaserver: at least one endpoint required")
	}
	needsCert := false
	for _, ep := range cfg.Endpoints {
		if ep.Policy == nil {
			return nil, errors.New("uaserver: endpoint with nil policy")
		}
		if !ep.Policy.Insecure {
			needsCert = true
		}
	}
	// Servers send their certificate in endpoint descriptions even for
	// policy None (the paper analyzes those certificates), so a missing
	// cert is only an error when a secure policy must be implemented.
	if needsCert && (cfg.Key == nil || len(cfg.CertDER) == 0) {
		return nil, errors.New("uaserver: secure endpoints require key and certificate")
	}
	if cfg.Space == nil && !cfg.Discovery {
		cfg.Space = addrspace.New(cfg.ApplicationURI, cfg.SoftwareVersion)
	}
	if cfg.MaxRefsPerBrowse <= 0 {
		cfg.MaxRefsPerBrowse = 1000
	}
	if len(cfg.TokenTypes) == 0 {
		cfg.TokenTypes = []uamsg.UserTokenType{uamsg.UserTokenAnonymous}
	}
	s := &Server{cfg: cfg}
	s.appDesc = uamsg.ApplicationDescription{
		ApplicationURI:  cfg.ApplicationURI,
		ProductURI:      cfg.ProductURI,
		ApplicationName: uatypes.NewText(cfg.ApplicationName),
		ApplicationType: uamsg.ApplicationServer,
		DiscoveryURLs:   []string{cfg.EndpointURL},
	}
	if cfg.Discovery {
		s.appDesc.ApplicationType = uamsg.ApplicationDiscoveryServer
	}
	s.endpoints = s.buildEndpoints()
	s.epSuffix = uamsg.EncodeEndpointsArray(s.endpoints)
	s.fsSuffix = uamsg.EncodeServersArray(s.knownServers())
	return s, nil
}

// knownServers assembles the FindServers listing: this application
// first, then the configured announcements.
func (s *Server) knownServers() []uamsg.ApplicationDescription {
	servers := make([]uamsg.ApplicationDescription, 0, 1+len(s.cfg.KnownServers))
	servers = append(servers, s.appDesc)
	return append(servers, s.cfg.KnownServers...)
}

// ConnOptions is how one connection is served: the memoized
// asymmetric-crypto engine (nil computes every RSA operation), the
// deterministic-handshake mode, and whether GetEndpoints/FindServers
// are answered from the server's pre-encoded response caches. It
// belongs to the campaign that dialed the connection, never to the
// server, which campaigns share (DESIGN.md §4). The zero value is the
// reference every optimisation is compared against: fresh randomness,
// no memo, every response encoded structurally.
type ConnOptions struct {
	Engine          *uarsa.Engine
	Deterministic   bool
	CachedResponses bool
}

func (s *Server) buildEndpoints() []uamsg.EndpointDescription {
	urls := append([]string{s.cfg.EndpointURL}, s.cfg.ExtraEndpointURLs...)
	var tokens []uamsg.UserTokenPolicy
	for i, tt := range s.cfg.TokenTypes {
		tokens = append(tokens, uamsg.UserTokenPolicy{
			PolicyID:  fmt.Sprintf("%d", i),
			TokenType: tt,
		})
	}
	var eps []uamsg.EndpointDescription
	for _, url := range urls {
		for _, epc := range s.cfg.Endpoints {
			for _, mode := range epc.Modes {
				level := byte(0)
				if mode != uamsg.SecurityModeNone {
					level = epc.Policy.SecurityLevel()
					if mode == uamsg.SecurityModeSignAndEncrypt {
						level += 10
					}
				}
				eps = append(eps, uamsg.EndpointDescription{
					EndpointURL:         url,
					Server:              s.appDesc,
					ServerCertificate:   s.cfg.CertDER,
					SecurityMode:        mode,
					SecurityPolicyURI:   epc.Policy.URI,
					UserIdentityTokens:  tokens,
					TransportProfileURI: uamsg.TransportProfileBinary,
					SecurityLevel:       level,
				})
			}
		}
	}
	return eps
}

// Config returns the server configuration.
//
//studyvet:api — the certificate golden reads the discovery servers' keys through it
func (s *Server) Config() Config { return s.cfg }

// HandleConn serves one client connection synchronously with the zero
// ConnOptions. The caller owns the accept loop: the simulated Internet
// hands in its in-memory connections, tests a loopback listener's.
func (s *Server) HandleConn(conn net.Conn) { s.HandleConnWith(conn, ConnOptions{}) }

// allowedModes implements the uasc policy gate from the endpoint table.
func (s *Server) allowedModes(p *uapolicy.Policy) []uamsg.MessageSecurityMode {
	for _, epc := range s.cfg.Endpoints {
		if epc.Policy == p {
			return epc.Modes
		}
	}
	// Every server accepts policy None for discovery-style requests
	// (GetEndpoints must be reachable without security).
	if p.Insecure {
		return []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}
	}
	return nil
}

// session is one created (and possibly activated) session.
type session struct {
	id        uatypes.NodeID
	authToken uatypes.NodeID
	activated bool
	identity  addrspace.Identity
	contPts   map[string][]uamsg.ReferenceDescription
	contSeq   int
}

// HandleConnWith serves one client connection synchronously under o.
func (s *Server) HandleConnWith(conn net.Conn, o ConnOptions) {
	defer conn.Close()
	tr, err := uasc.ServerHello(conn, uasc.DefaultLimits())
	if err != nil {
		return
	}
	defer tr.Release() // this goroutine is the transport's only reader
	cfg := uasc.ServerConfig{
		Key:           s.cfg.Key,
		CertDER:       s.cfg.CertDER,
		AllowedModes:  s.allowedModes,
		LifetimeMS:    3600000,
		Engine:        o.Engine,
		Deterministic: o.Deterministic,
	}
	if s.cfg.Quirks.RejectClientCert {
		cfg.ValidateClientCert = func([]byte) uastatus.Code {
			return uastatus.BadSecurityChecksFailed
		}
	}
	ch, err := uasc.Accept(tr, cfg)
	if err != nil {
		return
	}
	if s.cfg.Space != nil {
		ch.KnownIdentifiers(s.cfg.Space.Identifier)
	}
	clock := memconn.ClockOf(conn) // responses are stamped on it
	sessions := make(map[string]*session)
	for {
		got, err := ch.Recv()
		if err != nil {
			return
		}
		if got.MsgType == uamsg.MsgTypeClose {
			return
		}
		resp := s.dispatch(ch, sessions, got.Message, clock.Now(), o)
		if resp == nil {
			return
		}
		if err := ch.SendResponse(got.RequestID, resp); err != nil {
			return
		}
	}
}

func fault(now time.Time, handle uint32, code uastatus.Code) *uamsg.ServiceFault {
	return &uamsg.ServiceFault{Header: uamsg.ResponseHeader{
		Timestamp:     now,
		RequestHandle: handle,
		ServiceResult: code,
	}}
}

func okHeader(now time.Time, handle uint32) uamsg.ResponseHeader {
	return uamsg.ResponseHeader{
		Timestamp:     now,
		RequestHandle: handle,
		ServiceResult: uastatus.Good,
	}
}

// dispatch routes one request to its service handler; a nil return
// closes the connection. Under o.CachedResponses GetEndpoints and
// FindServers are answered from the pre-encoded caches. Those arms are
// the serve-side hot path: TestCachedGetEndpointsServeAllocBudget holds
// dispatch-plus-encode to two allocations per request.
//
//studyvet:hotpath — per-request on every simulated server; the GetEndpoints serve budget tests hold its allocs
func (s *Server) dispatch(ch *uasc.Channel, sessions map[string]*session, msg uamsg.Message, now time.Time, o ConnOptions) uamsg.Message {
	switch req := msg.(type) {
	case *uamsg.GetEndpointsRequest:
		if o.CachedResponses {
			return &uamsg.PreEncodedResponse{
				ID:     uamsg.IDGetEndpointsResponse,
				Header: okHeader(now, req.Header.RequestHandle),
				Suffix: s.epSuffix,
			}
		}
		return &uamsg.GetEndpointsResponse{
			Header:    okHeader(now, req.Header.RequestHandle),
			Endpoints: s.endpoints,
		}
	case *uamsg.FindServersRequest:
		if o.CachedResponses {
			return &uamsg.PreEncodedResponse{
				ID:     uamsg.IDFindServersResponse,
				Header: okHeader(now, req.Header.RequestHandle),
				Suffix: s.fsSuffix,
			}
		}
		return &uamsg.FindServersResponse{
			Header:  okHeader(now, req.Header.RequestHandle),
			Servers: s.knownServers(),
		}
	case *uamsg.CreateSessionRequest:
		return s.createSession(ch, sessions, req, now)
	case *uamsg.ActivateSessionRequest:
		return s.activateSession(ch, sessions, req, now)
	case *uamsg.CloseSessionRequest:
		if sess := lookupSession(sessions, req.Header.AuthenticationToken); sess != nil {
			delete(sessions, sess.authToken.Key())
			return &uamsg.CloseSessionResponse{Header: okHeader(now, req.Header.RequestHandle)}
		}
		return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
	case *uamsg.BrowseRequest:
		sess := activeSession(sessions, req.Header.AuthenticationToken)
		if sess == nil {
			return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
		}
		return s.browse(sess, req, now)
	case *uamsg.BrowseNextRequest:
		sess := activeSession(sessions, req.Header.AuthenticationToken)
		if sess == nil {
			return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
		}
		return s.browseNext(sess, req, now)
	case *uamsg.ReadRequest:
		sess := activeSession(sessions, req.Header.AuthenticationToken)
		if sess == nil {
			return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
		}
		return s.read(sess, req, now)
	case *uamsg.CallRequest:
		sess := activeSession(sessions, req.Header.AuthenticationToken)
		if sess == nil {
			return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
		}
		return s.call(sess, req, now)
	case *uamsg.OpenSecureChannelRequest:
		// Token renewal: reissue the same token ids (simplified).
		return &uamsg.OpenSecureChannelResponse{
			Header:            okHeader(now, req.Header.RequestHandle),
			ServerProtocolVer: uamsg.ProtocolVersion,
			SecurityToken: uamsg.ChannelSecurityToken{
				ChannelID: ch.ChannelID, TokenID: ch.TokenID,
				CreatedAt: now, RevisedLifetime: req.RequestedLifetime,
			},
		}
	default:
		if r, ok := msg.(uamsg.Request); ok {
			return fault(now, r.RequestHeader().RequestHandle, uastatus.BadServiceUnsupported)
		}
		return nil
	}
}

func lookupSession(sessions map[string]*session, token uatypes.NodeID) *session {
	var buf [48]byte
	return sessions[string(token.AppendKey(buf[:0]))]
}

func activeSession(sessions map[string]*session, token uatypes.NodeID) *session {
	var buf [48]byte
	sess := sessions[string(token.AppendKey(buf[:0]))]
	if sess == nil || !sess.activated {
		return nil
	}
	return sess
}

func randomToken() uatypes.NodeID {
	b := make([]byte, 16)
	//studyvet:entropy-exempt — a fixed 16 bytes the scanner echoes and never records
	if _, err := rand.Read(b); err != nil {
		panic("uaserver: crypto/rand failed: " + err.Error())
	}
	return uatypes.NodeID{Type: uatypes.NodeIDTypeByteString, Text: string(b)}
}

func (s *Server) createSession(ch *uasc.Channel, sessions map[string]*session, req *uamsg.CreateSessionRequest, now time.Time) uamsg.Message {
	if s.cfg.Discovery {
		return fault(now, req.Header.RequestHandle, uastatus.BadServiceUnsupported)
	}
	if s.cfg.Quirks.RejectSessions {
		return fault(now, req.Header.RequestHandle, uastatus.BadInternalError)
	}
	sess := &session{
		id:        uatypes.NewNumericNodeID(1, s.sessionCounter.Add(1)),
		authToken: randomToken(),
		contPts:   make(map[string][]uamsg.ReferenceDescription),
	}
	sessions[sess.authToken.Key()] = sess

	resp := &uamsg.CreateSessionResponse{
		Header:                okHeader(now, req.Header.RequestHandle),
		SessionID:             sess.id,
		AuthenticationToken:   sess.authToken,
		RevisedSessionTimeout: req.RequestedSessionTimeout,
		ServerNonce:           ch.SessionNonce(),
		ServerCertificate:     s.cfg.CertDER,
		ServerEndpoints:       s.endpoints,
	}
	// Sign clientCert+clientNonce on secure channels so conformant
	// clients can verify possession of the server key. Routed through
	// the channel's crypto context: the paper's 385-host reuse cluster
	// shares one key, and the scanner presents one certificate and a
	// constant nonce, so across the cluster (and across waves) this is
	// a single memoized RSA operation.
	sec := ch.Security()
	if !sec.Policy.Insecure && s.cfg.Key != nil {
		data := append(append([]byte{}, req.ClientCertificate...), req.ClientNonce...)
		cc := ch.CryptoContext("create-session-sign")
		if sig, err := sec.Policy.AsymSignCtx(cc, s.cfg.Key, data); err == nil {
			resp.ServerSignature = uamsg.SignatureData{
				Algorithm: sec.Policy.URI,
				Signature: sig,
			}
		}
	}
	return resp
}

func (s *Server) tokenTypeAdvertised(tt uamsg.UserTokenType) bool {
	for _, t := range s.cfg.TokenTypes {
		if t == tt {
			return true
		}
	}
	return false
}

func (s *Server) activateSession(ch *uasc.Channel, sessions map[string]*session, req *uamsg.ActivateSessionRequest, now time.Time) uamsg.Message {
	sess := lookupSession(sessions, req.Header.AuthenticationToken)
	if sess == nil {
		return fault(now, req.Header.RequestHandle, uastatus.BadSessionIdInvalid)
	}
	tok := uamsg.DecodeIdentityToken(req.UserIdentityToken)
	var identity addrspace.Identity
	switch t := tok.(type) {
	case *uamsg.AnonymousIdentityToken, nil:
		// A missing token defaults to anonymous per OPC 10000-4.
		if !s.tokenTypeAdvertised(uamsg.UserTokenAnonymous) {
			return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenRejected)
		}
		identity = addrspace.Anonymous
	case *uamsg.UserNameIdentityToken:
		if !s.tokenTypeAdvertised(uamsg.UserTokenUserName) {
			return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenRejected)
		}
		want, ok := s.cfg.Users[t.UserName]
		if !ok || want != string(t.Password) {
			return fault(now, req.Header.RequestHandle, uastatus.BadUserAccessDenied)
		}
		identity = addrspace.Identity{Kind: uamsg.UserTokenUserName, UserName: t.UserName}
	case *uamsg.X509IdentityToken:
		if !s.tokenTypeAdvertised(uamsg.UserTokenCertificate) {
			return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenRejected)
		}
		if len(t.CertificateData) == 0 {
			return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenInvalid)
		}
		identity = addrspace.Identity{Kind: uamsg.UserTokenCertificate}
	case *uamsg.IssuedIdentityToken:
		if !s.tokenTypeAdvertised(uamsg.UserTokenIssuedToken) {
			return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenRejected)
		}
		identity = addrspace.Identity{Kind: uamsg.UserTokenIssuedToken}
	default:
		return fault(now, req.Header.RequestHandle, uastatus.BadIdentityTokenInvalid)
	}
	sess.activated = true
	sess.identity = identity
	return &uamsg.ActivateSessionResponse{
		Header:      okHeader(now, req.Header.RequestHandle),
		ServerNonce: ch.SessionNonce(),
	}
}

func (s *Server) browse(sess *session, req *uamsg.BrowseRequest, now time.Time) uamsg.Message {
	if s.cfg.MaxNodesPerBrowse > 0 && len(req.NodesToBrowse) > s.cfg.MaxNodesPerBrowse {
		return fault(now, req.Header.RequestHandle, uastatus.BadTooManyOperations)
	}
	resp := &uamsg.BrowseResponse{Header: okHeader(now, req.Header.RequestHandle)}
	if len(req.NodesToBrowse) > 0 {
		resp.Results = make([]uamsg.BrowseResult, 0, len(req.NodesToBrowse))
	}
	max := int(req.MaxReferences)
	if max <= 0 || max > s.cfg.MaxRefsPerBrowse {
		max = s.cfg.MaxRefsPerBrowse
	}
	for _, bd := range req.NodesToBrowse {
		refs, ok := s.cfg.Space.Browse(bd.NodeID, bd.Direction, bd.NodeClassMask)
		if !ok {
			resp.Results = append(resp.Results, uamsg.BrowseResult{Status: uastatus.BadNodeIdUnknown})
			continue
		}
		resp.Results = append(resp.Results, s.page(sess, refs, max))
	}
	return resp
}

// page returns the first max references as one Browse result and parks
// the rest under a fresh continuation point of the session.
func (s *Server) page(sess *session, refs []uamsg.ReferenceDescription, max int) uamsg.BrowseResult {
	if len(refs) <= max {
		return uamsg.BrowseResult{Status: uastatus.Good, References: refs}
	}
	if s.cfg.MaxContinuationPoints > 0 && len(sess.contPts) >= s.cfg.MaxContinuationPoints {
		return uamsg.BrowseResult{Status: uastatus.BadNoContinuationPoints}
	}
	sess.contSeq++
	cp := fmt.Sprintf("cp-%d", sess.contSeq)
	sess.contPts[cp] = refs[max:]
	return uamsg.BrowseResult{Status: uastatus.Good, References: refs[:max], ContinuationPoint: []byte(cp)}
}

func (s *Server) browseNext(sess *session, req *uamsg.BrowseNextRequest, now time.Time) uamsg.Message {
	resp := &uamsg.BrowseNextResponse{Header: okHeader(now, req.Header.RequestHandle)}
	for _, cp := range req.ContinuationPoints {
		refs, ok := sess.contPts[string(cp)]
		if !ok {
			resp.Results = append(resp.Results, uamsg.BrowseResult{Status: uastatus.BadNodeIdUnknown})
			continue
		}
		delete(sess.contPts, string(cp))
		if req.ReleasePoints {
			resp.Results = append(resp.Results, uamsg.BrowseResult{Status: uastatus.Good})
			continue
		}
		resp.Results = append(resp.Results, s.page(sess, refs, s.cfg.MaxRefsPerBrowse))
	}
	return resp
}

func (s *Server) read(sess *session, req *uamsg.ReadRequest, now time.Time) uamsg.Message {
	resp := &uamsg.ReadResponse{Header: okHeader(now, req.Header.RequestHandle)}
	if len(req.NodesToRead) > 0 {
		resp.Results = make([]uatypes.DataValue, 0, len(req.NodesToRead))
	}
	for _, rv := range req.NodesToRead {
		resp.Results = append(resp.Results, s.readAttr(sess, rv, now))
	}
	return resp
}

// accessLevels and truth are the values of the access-level and
// executable attributes, which every read of one points at: a
// response only encodes its values.
var (
	accessLevels = func() (vs [256]uatypes.Variant) {
		for i := range vs {
			vs[i] = uatypes.Variant{Type: uatypes.TypeByte, Uint: uint64(i)}
		}
		return vs
	}()
	truth = map[bool]*uatypes.Variant{false: {Type: uatypes.TypeBoolean}, true: {Type: uatypes.TypeBoolean, Bool: true}}
)

func (s *Server) readAttr(sess *session, rv uamsg.ReadValueID, now time.Time) uatypes.DataValue {
	node, ok := s.cfg.Space.Node(rv.NodeID)
	if !ok {
		return uatypes.DataValue{HasStatus: true, Status: uastatus.BadNodeIdUnknown}
	}
	good := func(v *uatypes.Variant) uatypes.DataValue {
		return uatypes.DataValue{
			Value: v, HasStatus: true, Status: uastatus.Good,
			SourceTimestamp: uatypes.TimeToDateTime(now),
		}
	}
	made := func(v uatypes.Variant) uatypes.DataValue { return good(&v) }
	switch rv.AttributeID {
	case uamsg.AttrValue:
		if node.Class != uamsg.NodeClassVariable {
			return uatypes.DataValue{HasStatus: true, Status: uastatus.BadAttributeIdInvalid}
		}
		if !node.Access(sess.identity).CanRead() {
			return uatypes.DataValue{HasStatus: true, Status: uastatus.BadUserAccessDenied}
		}
		v, _ := s.cfg.Space.Value(rv.NodeID)
		return good(v)
	case uamsg.AttrAccessLevel:
		return good(&accessLevels[node.AccessLevel])
	case uamsg.AttrUserAccessLevel:
		return good(&accessLevels[node.Access(sess.identity)])
	case uamsg.AttrExecutable:
		return good(truth[node.Executable])
	case uamsg.AttrUserExecutable:
		return good(truth[node.CanExecute(sess.identity)])
	case uamsg.AttrBrowseName:
		return made(uatypes.Variant{Type: uatypes.TypeQualifiedName, Ext: &uatypes.VariantExt{QName: node.BrowseName}})
	case uamsg.AttrDisplayName:
		return made(uatypes.LocalizedTextVariant(node.DisplayName))
	case uamsg.AttrNodeClass:
		return made(uatypes.Int32Variant(int32(node.Class)))
	case uamsg.AttrNodeID:
		return made(uatypes.Variant{Type: uatypes.TypeNodeID, Ext: &uatypes.VariantExt{Node: node.ID}})
	default:
		return uatypes.DataValue{HasStatus: true, Status: uastatus.BadAttributeIdInvalid}
	}
}

func (s *Server) call(sess *session, req *uamsg.CallRequest, now time.Time) uamsg.Message {
	resp := &uamsg.CallResponse{Header: okHeader(now, req.Header.RequestHandle)}
	for _, c := range req.MethodsToCall {
		node, ok := s.cfg.Space.Node(c.MethodID)
		if !ok {
			resp.Results = append(resp.Results, uamsg.CallMethodResult{Status: uastatus.BadMethodInvalid})
			continue
		}
		if !node.CanExecute(sess.identity) {
			resp.Results = append(resp.Results, uamsg.CallMethodResult{Status: uastatus.BadUserAccessDenied})
			continue
		}
		// Methods are no-ops: the simulated plant never changes state,
		// mirroring the study's read-only ethics constraints.
		resp.Results = append(resp.Results, uamsg.CallMethodResult{Status: uastatus.Good})
	}
	return resp
}
