// Package uaclient implements a full OPC UA client: UACP handshake,
// secure channels with any policy/mode, discovery services, sessions
// with all token types, and a polite address-space walker with the
// byte/time limits the paper's scanner enforces (Appendix A.2).
package uaclient

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/memconn"
	"repro/internal/telemetry"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
	"repro/internal/uasc"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// Dialer abstracts connection establishment so clients run against the
// real Internet (net.Dialer) or a simulated one.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Options configures a client.
type Options struct {
	Dialer          Dialer
	Limits          uasc.Limits
	Timeout         time.Duration // per-connection I/O deadline
	ApplicationURI  string
	ApplicationName string

	// Per-stage deadlines (all optional; zero falls back to Timeout).
	// The scanner's resilience layer sets them so one adversarial stage
	// — a dial that hangs, a hello that dribbles, an OPN that stalls —
	// fails within its own bound instead of consuming the whole
	// connection budget (DESIGN.md §9).
	ConnectTimeout time.Duration // bounds Dialer.DialContext
	HelloTimeout   time.Duration // bounds the UACP hello/acknowledge exchange
	OpenTimeout    time.Duration // bounds the OpenSecureChannel exchange
	RequestTimeout time.Duration // per-request budget after channel open

	// HardDeadline, when nonzero, is an absolute watchdog: no deadline
	// extension — not even the walk's — ever arms past it, so a tarpit
	// host cannot wedge a grab-pool worker beyond this instant. It is a
	// time on the connection's clock (memconn.ClockOf).
	HardDeadline time.Time

	// Metrics, when non-nil, counts in the given scope (the scanner
	// passes its per-wave scope) every connection attempt as
	// ua_dials{result=ok|refused|hello_failed} and every service request
	// the client sends as ua_requests{service=<name>}. Nil costs one
	// pointer check per dial and per request.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Dialer == nil {
		o.Dialer = &net.Dialer{}
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.ApplicationURI == "" {
		o.ApplicationURI = "urn:repro:opcua:client"
	}
	return o
}

// EndpointAddress extracts "host:port" from an opc.tcp URL.
func EndpointAddress(endpointURL string) (string, error) {
	rest, ok := strings.CutPrefix(endpointURL, "opc.tcp://")
	if !ok {
		return "", fmt.Errorf("uaclient: unsupported scheme in %q", endpointURL)
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", fmt.Errorf("uaclient: empty host in %q", endpointURL)
	}
	if !strings.Contains(rest, ":") {
		rest += ":4840"
	}
	return rest, nil
}

// countingConn tracks transferred bytes for the scanner's traffic cap.
type countingConn struct {
	net.Conn
	read    *atomic.Int64
	written *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// Client is a connection to one OPC UA server.
type Client struct {
	opts  Options
	clock *memconn.Timeline // the connection's (memconn.ClockOf): nil is the wall

	tr *uasc.Transport
	ch *uasc.Channel

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	endpointURL string
	reqHandle   uint32

	sessionToken uatypes.NodeID
	activated    bool
	// broken is set when a request fails below the service layer: the
	// channel is then unusable, and Walk stops instead of retrying.
	broken bool

	// deadlineAt is the I/O deadline last armed on the connection;
	// ExtendDeadline re-arms only when a meaningful share of the budget
	// has elapsed: on a kernel socket every SetDeadline modifies a
	// runtime timer, and the walk issues thousands of requests per
	// connection. (The simulated connection only stores the time.)
	deadlineAt time.Time

	// requests caches the ua_requests counters this connection has
	// used, by index into services (resolving one takes the registry
	// lock; a connection uses two or three of them).
	requests [len(services)]*telemetry.Counter
}

// services names the request types for the ua_requests{service=...}
// counters.
var services = [...]struct {
	id   uint32
	name string
}{
	{uamsg.IDGetEndpointsRequest, "get_endpoints"},
	{uamsg.IDFindServersRequest, "find_servers"},
	{uamsg.IDCreateSessionRequest, "create_session"},
	{uamsg.IDActivateSessionRequest, "activate_session"},
	{uamsg.IDCloseSessionRequest, "close_session"},
	{uamsg.IDBrowseRequest, "browse"},
	{uamsg.IDBrowseNextRequest, "browse_next"},
	{uamsg.IDReadRequest, "read"},
	{uamsg.IDCallRequest, "call"},
}

// ServiceNames lists the service label values of the ua_requests
// counters, in a fixed order (for summary tables).
func ServiceNames() []string {
	out := make([]string, len(services))
	for i, s := range services {
		out[i] = s.name
	}
	return out
}

// countRequest bumps the ua_requests counter of req's service.
func (c *Client) countRequest(req uamsg.Request) {
	id := req.TypeID()
	for i := range services {
		if services[i].id != id {
			continue
		}
		if c.requests[i] == nil {
			c.requests[i] = c.opts.Metrics.Scope("service", services[i].name).Counter("ua_requests")
		}
		c.requests[i].Inc()
		return
	}
}

// Dial connects and completes the UACP handshake. No secure channel is
// opened yet; call OpenChannel.
func Dial(ctx context.Context, endpointURL string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	addr, err := EndpointAddress(endpointURL)
	if err != nil {
		return nil, err
	}
	dctx := ctx
	if opts.ConnectTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, opts.ConnectTimeout)
		defer cancel()
	}
	conn, err := opts.Dialer.DialContext(dctx, "tcp", addr)
	if err != nil {
		countDial(opts.Metrics, "refused")
		return nil, err
	}
	c := &Client{opts: opts, clock: memconn.ClockOf(conn), endpointURL: endpointURL}
	cc := countingConn{Conn: conn, read: &c.bytesRead, written: &c.bytesWritten}
	c.deadlineAt = c.clamp(c.clock.Now().Add(c.budget(opts.HelloTimeout)))
	_ = conn.SetDeadline(c.deadlineAt)
	tr, err := uasc.ClientHello(cc, endpointURL, opts.Limits)
	if err != nil {
		countDial(opts.Metrics, "hello_failed")
		conn.Close()
		return nil, err
	}
	countDial(opts.Metrics, "ok")
	c.tr = tr
	return c, nil
}

// DialResults lists the result label values of the ua_dials counters, in
// a fixed order (for summary tables): the UACP handshake completed, the
// connect failed, or the peer accepted and the hello exchange failed.
func DialResults() []string { return []string{"ok", "refused", "hello_failed"} }

// countDial bumps ua_dials{result=...} in m's scope; a nil m costs the
// one check.
func countDial(m *telemetry.Registry, result string) {
	if m != nil {
		m.Scope("result", result).Counter("ua_dials").Inc()
	}
}

// BytesTransferred returns total bytes read and written.
func (c *Client) BytesTransferred() (read, written int64) {
	return c.bytesRead.Load(), c.bytesWritten.Load()
}

// Broken reports whether a request on this connection failed below the
// service layer (closed connection, deadline, malformed frame). The
// channel is then unusable: nothing further should be sent on it.
func (c *Client) Broken() bool { return c.broken }

// budget resolves a stage deadline, falling back to the connection
// timeout when the stage has no override.
func (c *Client) budget(stage time.Duration) time.Duration {
	if stage > 0 {
		return stage
	}
	return c.opts.Timeout
}

// clamp caps a candidate deadline at the hard watchdog deadline.
func (c *Client) clamp(t time.Time) time.Time {
	if !c.opts.HardDeadline.IsZero() && t.After(c.opts.HardDeadline) {
		return c.opts.HardDeadline
	}
	return t
}

// armStage re-arms the connection deadline for a new protocol stage.
func (c *Client) armStage(stage time.Duration) {
	c.deadlineAt = c.clamp(c.clock.Now().Add(c.budget(stage)))
	_ = c.tr.Conn.SetDeadline(c.deadlineAt)
}

// ExtendDeadline pushes the connection I/O deadline forward. Re-arming
// is rate-limited to once per quarter of the request budget, so the
// effective deadline stays within [3/4·budget, budget] of the last
// request instead of being re-armed (and a timer re-allocated) on
// every one. The hard watchdog deadline is never exceeded.
func (c *Client) ExtendDeadline() {
	now := c.clock.Now()
	budget := c.budget(c.opts.RequestTimeout)
	if c.deadlineAt.Sub(now) > 3*budget/4 {
		return
	}
	c.deadlineAt = c.clamp(now.Add(budget))
	_ = c.tr.Conn.SetDeadline(c.deadlineAt)
}

// ChannelSecurity describes the secure channel to open.
type ChannelSecurity struct {
	Policy        *uapolicy.Policy
	Mode          uamsg.MessageSecurityMode
	LocalKey      *rsa.PrivateKey
	LocalCertDER  []byte
	RemoteCertDER []byte

	// Engine memoizes the channel's RSA operations; Derive makes the
	// handshake deterministic so memoized results hit across waves
	// (both optional; see uasc.ChannelSecurity and package uarsa).
	Engine *uarsa.Engine
	Derive *uarsa.Derivation

	// Metrics observes the handshake under the caller's (policy, mode)
	// scope (optional; see uasc.ChannelSecurity).
	Metrics *telemetry.ChannelMetrics
}

// OpenChannel opens the secure channel. Must be called exactly once.
func (c *Client) OpenChannel(sec ChannelSecurity) error {
	if c.ch != nil {
		return errors.New("uaclient: channel already open")
	}
	if c.opts.OpenTimeout > 0 {
		c.armStage(c.opts.OpenTimeout)
	} else {
		c.ExtendDeadline()
	}
	ch, err := uasc.Open(c.tr, uasc.ChannelSecurity{
		Policy:        sec.Policy,
		Mode:          sec.Mode,
		LocalKey:      sec.LocalKey,
		LocalCertDER:  sec.LocalCertDER,
		RemoteCertDER: sec.RemoteCertDER,
		Engine:        sec.Engine,
		Derive:        sec.Derive,
		Metrics:       sec.Metrics,
	}, 3600000)
	if err != nil {
		return err
	}
	c.ch = ch
	return nil
}

// OpenInsecureChannel opens a None/None channel (used for discovery).
func (c *Client) OpenInsecureChannel() error {
	return c.OpenChannel(ChannelSecurity{
		Policy: uapolicy.None,
		Mode:   uamsg.SecurityModeNone,
	})
}

// Close tears the connection down.
func (c *Client) Close() error {
	if c.ch != nil {
		return c.ch.Close()
	}
	return c.tr.Close()
}

func (c *Client) nextHandle() uint32 {
	c.reqHandle++
	return c.reqHandle
}

func (c *Client) header() uamsg.RequestHeader {
	return uamsg.RequestHeader{
		AuthenticationToken: c.sessionToken,
		Timestamp:           time.Now(),
		RequestHandle:       c.nextHandle(),
		TimeoutHint:         uint32(c.opts.Timeout / time.Millisecond),
	}
}

// request sends a request and unwraps faults into errors.
func (c *Client) request(req uamsg.Request) (uamsg.Message, error) {
	if c.ch == nil {
		return nil, errors.New("uaclient: no open channel")
	}
	c.ExtendDeadline()
	if c.opts.Metrics != nil {
		c.countRequest(req)
	}
	msg, err := c.ch.Request(req)
	if err != nil {
		c.broken = true
		return nil, err
	}
	if f, ok := msg.(*uamsg.ServiceFault); ok {
		return nil, ServiceError{Code: f.Header.ServiceResult}
	}
	if resp, ok := msg.(uamsg.Response); ok {
		if code := resp.ResponseHeader().ServiceResult; code.IsBad() {
			return nil, ServiceError{Code: code}
		}
	}
	return msg, nil
}

// ServiceError is a bad service result from the server.
type ServiceError struct {
	Code uastatus.Code
}

// Error implements the error interface.
func (e ServiceError) Error() string { return "uaclient: service error: " + e.Code.String() }

// GetEndpoints retrieves the server's endpoint descriptions.
func (c *Client) GetEndpoints() ([]uamsg.EndpointDescription, error) {
	msg, err := c.request(&uamsg.GetEndpointsRequest{
		Header:      c.header(),
		EndpointURL: c.endpointURL,
	})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*uamsg.GetEndpointsResponse)
	if !ok {
		return nil, fmt.Errorf("uaclient: unexpected %T", msg)
	}
	return resp.Endpoints, nil
}

// FindServers queries the discovery service.
func (c *Client) FindServers() ([]uamsg.ApplicationDescription, error) {
	msg, err := c.request(&uamsg.FindServersRequest{
		Header:      c.header(),
		EndpointURL: c.endpointURL,
	})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*uamsg.FindServersResponse)
	if !ok {
		return nil, fmt.Errorf("uaclient: unexpected %T", msg)
	}
	return resp.Servers, nil
}

// Identity selects the session authentication token.
type Identity struct {
	Token any // *uamsg.AnonymousIdentityToken etc.; nil means anonymous
}

// AnonymousIdentity authenticates anonymously.
func AnonymousIdentity() Identity {
	return Identity{Token: &uamsg.AnonymousIdentityToken{PolicyID: "0"}}
}

// CreateSession creates and activates a session with the identity.
func (c *Client) CreateSession(identity Identity) error {
	nonce := make([]byte, 32)
	msg, err := c.request(&uamsg.CreateSessionRequest{
		Header: c.header(),
		ClientDescription: uamsg.ApplicationDescription{
			ApplicationURI:  c.opts.ApplicationURI,
			ApplicationName: uatypes.NewText(c.opts.ApplicationName),
			ApplicationType: uamsg.ApplicationClient,
		},
		EndpointURL:             c.endpointURL,
		SessionName:             "session",
		ClientNonce:             nonce,
		ClientCertificate:       c.ch.Security().LocalCertDER,
		RequestedSessionTimeout: 60000,
	})
	if err != nil {
		return err
	}
	resp, ok := msg.(*uamsg.CreateSessionResponse)
	if !ok {
		return fmt.Errorf("uaclient: unexpected %T", msg)
	}
	c.sessionToken = resp.AuthenticationToken

	act := &uamsg.ActivateSessionRequest{
		Header:            c.header(),
		UserIdentityToken: uamsg.EncodeIdentityToken(identity.Token),
	}
	sec := c.ch.Security()
	if !sec.Policy.Insecure && sec.LocalKey != nil {
		data := append(append([]byte{}, resp.ServerCertificate...), resp.ServerNonce...)
		// Routed through the channel's crypto context: on deterministic
		// channels the server nonce replays across waves, so this RSA
		// signature resolves from the campaign cache after the first
		// session against each (certificate, policy, mode) state.
		cc := c.ch.CryptoContext("activate-sign")
		if sig, err := sec.Policy.AsymSignCtx(cc, sec.LocalKey, data); err == nil {
			act.ClientSignature = uamsg.SignatureData{Algorithm: sec.Policy.URI, Signature: sig}
		}
	}
	if _, err := c.request(act); err != nil {
		c.sessionToken = uatypes.NodeID{}
		return err
	}
	c.activated = true
	return nil
}

// CloseSession ends the session.
func (c *Client) CloseSession() error {
	if !c.activated && c.sessionToken.IsNull() {
		return nil
	}
	_, err := c.request(&uamsg.CloseSessionRequest{Header: c.header()})
	c.activated = false
	c.sessionToken = uatypes.NodeID{}
	return err
}

// Browse returns the forward hierarchical references of one node.
//
//studyvet:api — the reference walk (walk_diff_test.go's referenceWalk) browses through it
func (c *Client) Browse(id uatypes.NodeID) ([]uamsg.ReferenceDescription, error) {
	results, err := c.browse([]uatypes.NodeID{id}, nil)
	if err != nil {
		return nil, err
	}
	if results[0].Status.IsBad() {
		return nil, ServiceError{Code: results[0].Status}
	}
	return results[0].References, nil
}

// browse asks for the forward hierarchical references of ids in one
// BrowseRequest and follows every result's continuation points, so
// result i holds node i's complete listing, or the bad status that
// makes the caller skip that node alone. An error means no result is
// usable: a ServiceError is the server refusing the request as a
// whole, anything else the connection failing. paced, when non-nil,
// runs after each answered request (the walk's politeness delay).
func (c *Client) browse(ids []uatypes.NodeID, paced func()) ([]uamsg.BrowseResult, error) {
	if paced == nil {
		paced = func() {}
	}
	nodes := make([]uamsg.BrowseDescription, len(ids))
	for i, id := range ids {
		nodes[i] = uamsg.BrowseDescription{
			NodeID:          id,
			Direction:       uamsg.BrowseDirectionForward,
			ReferenceTypeID: uatypes.NewNumericNodeID(0, uamsg.IDHierarchicalRefType),
			IncludeSubtypes: true,
			ResultMask:      63,
		}
	}
	msg, err := c.request(&uamsg.BrowseRequest{Header: c.header(), NodesToBrowse: nodes})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*uamsg.BrowseResponse)
	if !ok {
		return nil, fmt.Errorf("uaclient: unexpected %T", msg)
	}
	if len(resp.Results) != len(ids) {
		return nil, fmt.Errorf("uaclient: browse of %d nodes returned %d results", len(ids), len(resp.Results))
	}
	paced()
	for i := range resp.Results {
		r := &resp.Results[i]
		for len(r.ContinuationPoint) > 0 {
			msg, err := c.request(&uamsg.BrowseNextRequest{
				Header:             c.header(),
				ContinuationPoints: [][]byte{r.ContinuationPoint},
			})
			var refused ServiceError
			if errors.As(err, &refused) {
				*r = uamsg.BrowseResult{Status: refused.Code}
				break
			}
			if err != nil {
				return nil, err
			}
			next, ok := msg.(*uamsg.BrowseNextResponse)
			if !ok || len(next.Results) != 1 {
				return nil, errors.New("uaclient: malformed browse-next response")
			}
			paced()
			r.References = append(r.References, next.Results[0].References...)
			r.ContinuationPoint = next.Results[0].ContinuationPoint
		}
	}
	return resp.Results, nil
}

// Read reads one attribute of several nodes.
func (c *Client) Read(ids []uatypes.NodeID, attr uamsg.AttributeID) ([]uatypes.DataValue, error) {
	rvs := make([]uamsg.ReadValueID, len(ids))
	for i, id := range ids {
		rvs[i] = uamsg.ReadValueID{NodeID: id, AttributeID: attr}
	}
	msg, err := c.request(&uamsg.ReadRequest{
		Header:      c.header(),
		Timestamps:  uamsg.TimestampsNeither,
		NodesToRead: rvs,
	})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*uamsg.ReadResponse)
	if !ok {
		return nil, fmt.Errorf("uaclient: unexpected %T", msg)
	}
	return resp.Results, nil
}

// ReadValue reads the Value attribute of one node.
func (c *Client) ReadValue(id uatypes.NodeID) (uatypes.DataValue, error) {
	vals, err := c.Read([]uatypes.NodeID{id}, uamsg.AttrValue)
	if err != nil {
		return uatypes.DataValue{}, err
	}
	if len(vals) != 1 {
		return uatypes.DataValue{}, errors.New("uaclient: read returned no results")
	}
	return vals[0], nil
}

// Call invokes one method.
//
//studyvet:api — uaserver's Call-service tests pin the handler's access check through it; the scanner never invokes methods
func (c *Client) Call(objectID, methodID uatypes.NodeID, args []uatypes.Variant) (uamsg.CallMethodResult, error) {
	msg, err := c.request(&uamsg.CallRequest{
		Header: c.header(),
		MethodsToCall: []uamsg.CallMethodRequest{{
			ObjectID: objectID, MethodID: methodID, InputArguments: args,
		}},
	})
	if err != nil {
		return uamsg.CallMethodResult{}, err
	}
	resp, ok := msg.(*uamsg.CallResponse)
	if !ok || len(resp.Results) != 1 {
		return uamsg.CallMethodResult{}, errors.New("uaclient: malformed call response")
	}
	return resp.Results[0], nil
}

// NamespaceArray reads the server's namespace array.
func (c *Client) NamespaceArray() ([]string, error) {
	dv, err := c.ReadValue(uatypes.NewNumericNodeID(0, uamsg.IDNamespaceArray))
	if err != nil {
		return nil, err
	}
	if dv.Value == nil {
		return nil, errors.New("uaclient: namespace array empty")
	}
	return dv.Value.StringArray(), nil
}

// SoftwareVersion reads BuildInfo/SoftwareVersion.
func (c *Client) SoftwareVersion() (string, error) {
	dv, err := c.ReadValue(uatypes.NewNumericNodeID(0, uamsg.IDSoftwareVersion))
	if err != nil {
		return "", err
	}
	if dv.Value == nil {
		return "", nil
	}
	return dv.Value.Str, nil
}
