package scanner

import (
	"context"
	"crypto/rsa"
	"errors"
	"time"

	"repro/internal/memconn"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// Via records how a target entered the scan queue (Figure 2 legend).
type Via string

// Target discovery channels.
const (
	ViaPortScan  Via = "portscan"
	ViaReference Via = "follow-reference"
)

// Target is one host:port to grab.
type Target struct {
	Address string // "ip:port"
	Via     Via
}

// EndpointInfo is the security-relevant projection of one advertised
// endpoint description.
type EndpointInfo struct {
	URL               string
	SecurityMode      uamsg.MessageSecurityMode
	SecurityPolicyURI string
	TokenTypes        []uamsg.UserTokenType
}

// SecureChannelResult records the outcome of the secure-channel attempt
// with the scanner's self-signed certificate (§4).
type SecureChannelResult struct {
	Attempted    bool
	PolicyURI    string
	Mode         uamsg.MessageSecurityMode
	OK           bool
	CertRejected bool // server answered BadSecurityChecksFailed
	Error        string
}

// SessionResult records the anonymous-session attempt.
type SessionResult struct {
	Offered   bool // anonymous advertised in any token policy
	Attempted bool
	OK        bool
	Error     string
}

// NodeRecord is one traversed node's access profile.
type NodeRecord struct {
	ID          string
	Class       string
	DisplayName string
	Readable    bool
	Writable    bool
	Executable  bool
	ValueSample string // dropped by the dataset anonymizer
}

// NodeStats aggregates traversal access rights (Figure 7 input).
type NodeStats struct {
	Variables  int
	Readable   int
	Writable   int
	Methods    int
	Executable int
}

// Result is the complete grab of one target, the unit of the dataset.
type Result struct {
	Address string
	Via     Via
	Time    time.Time

	// ReachedOPCUA distinguishes real OPC UA servers from port-4840
	// noise (only 0.5‰ of open ports speak OPC UA per the paper).
	ReachedOPCUA bool
	Error        string
	// FailureClass is the taxonomy class of a discovery-stage failure
	// (timeout / reset / malformed / retries-exhausted), set only when
	// Resilience.Classify is on. Classified failures enter the dataset
	// as failure records; analyses key on ReachedOPCUA and ignore them.
	FailureClass string

	ApplicationURI  string
	ProductURI      string
	ApplicationType uamsg.ApplicationType
	SoftwareVersion string

	Endpoints     []EndpointInfo
	ServerCertDER []byte

	SecureChannel SecureChannelResult
	Session       SessionResult

	Namespaces []string
	Nodes      []NodeRecord
	NodeStats  NodeStats

	// FollowUp lists host:port addresses advertised by this server that
	// differ from the scanned address (endpoint URLs and discovery
	// references). The campaign scans them in the same wave (from
	// 2020-05-04 onward, per Figure 2).
	FollowUp []string
	// FollowDepth is the follow-up depth the target was grabbed at
	// (0 = port scan). Delta campaigns replay it so references carried
	// over from a skipped referrer re-enter at the depth the full scan
	// would have used, preserving the DefaultMaxFollowDepth cutoff.
	FollowDepth int

	BytesTransferred int64
	// Duration is the grab's elapsed time on its clock (Scanner.arm).
	Duration time.Duration
}

// Scanner grabs OPC UA metadata from targets.
type Scanner struct {
	// Dialer connects to targets (the simulated network or a real one).
	Dialer uaclient.Dialer
	// Key and CertDER are the scanner's self-signed client identity used
	// for secure-channel attempts.
	Key     *rsa.PrivateKey
	CertDER []byte
	// Timeout bounds each connection.
	Timeout time.Duration
	// Walk configures traversal politeness.
	Walk uaclient.WalkOptions
	// ApplicationURI identifies the scanner (the paper advertises contact
	// information here).
	ApplicationURI string
	// Crypto carries the campaign's memoized RSA engine and the
	// deterministic-handshake seed (nil scans with fresh randomness and
	// no memoization — the legacy behavior).
	Crypto *uarsa.Suite
	// Metrics receives handshake outcome/latency instruments scoped by
	// (policy, mode) and the per-service ua_requests counters; nil
	// disables them at zero cost. The campaign runtime installs a
	// per-wave scope.
	Metrics *telemetry.Registry
	// Trace, when non-nil, records one span-style exchange per grab
	// (open→handshake→session→close) under the deterministic ID derived
	// from (TraceSeed, TraceWave, address).
	Trace     *telemetry.Tracer
	TraceSeed int64
	TraceWave int
	// Resilience arms the grab against adversarial hosts: stage
	// deadlines, bounded seeded retries, the per-grab watchdog and the
	// failure taxonomy. The zero value reproduces the legacy
	// single-Timeout behavior exactly (see resilience.go).
	Resilience Resilience
}

// channelMetrics resolves the handshake instruments for one secure
// (policy, mode) pair: handshake_attempts/ok/failed/cert_rejected and
// the handshake_ns histogram, labeled policy=<abbrev>,mode=<mode>.
// Returns nil — the zero-cost disabled handle — when telemetry is off
// or the policy is insecure (insecure opens are discovery traffic, not
// handshakes the paper measures).
func (s *Scanner) channelMetrics(policy *uapolicy.Policy, mode uamsg.MessageSecurityMode) *telemetry.ChannelMetrics {
	if s.Metrics == nil || policy.Insecure {
		return nil
	}
	scope := s.Metrics.Scope("policy", policy.Abbrev).Scope("mode", mode.String())
	return &telemetry.ChannelMetrics{
		Attempts:     scope.Counter("handshake_attempts"),
		OK:           scope.Counter("handshake_ok"),
		Failed:       scope.Counter("handshake_failed"),
		CertRejected: scope.Counter("handshake_cert_rejected"),
		HandshakeNs:  scope.Histogram("handshake_ns"),
	}
}

// channelSecurity assembles the secure-channel parameters for one
// probe. The deterministic exchange derivation is keyed by (campaign
// seed, purpose, remote certificate, policy, mode) — deliberately not
// by wave or address, so an unchanged host replays the identical OPN
// exchange in every wave and the paper's 385-host certificate-reuse
// cluster collapses to a single exchange per wave.
func (s *Scanner) channelSecurity(purpose string, policy *uapolicy.Policy,
	mode uamsg.MessageSecurityMode, remoteDER []byte) uaclient.ChannelSecurity {
	sec := uaclient.ChannelSecurity{Policy: policy, Mode: mode}
	sec.Metrics = s.channelMetrics(policy, mode)
	if !policy.Insecure {
		sec.LocalKey = s.Key
		sec.LocalCertDER = s.CertDER
		sec.RemoteCertDER = remoteDER
	}
	if s.Crypto != nil {
		sec.Engine = s.Crypto.Engine
		if !policy.Insecure {
			sec.Derive = s.Crypto.Exchange([]byte(purpose), remoteDER,
				[]byte(policy.URI), []byte{byte(mode)})
		}
	}
	return sec
}

func (s *Scanner) opts() uaclient.Options {
	return uaclient.Options{
		Dialer:          s.Dialer,
		Timeout:         s.Timeout,
		ApplicationURI:  s.ApplicationURI,
		ApplicationName: "research scanner; see https://example.org/opcua-study",
		ConnectTimeout:  s.Resilience.ConnectTimeout,
		HelloTimeout:    s.Resilience.HelloTimeout,
		OpenTimeout:     s.Resilience.OpenTimeout,
		RequestTimeout:  s.Resilience.RequestTimeout,
		Metrics:         s.Metrics,
	}
}

// arm puts one grab on its clock and returns it: on the simulated
// Internet (a simnet.View) a virtual timeline of its own, which ctx
// carries to the dial; on any other dialer, a real network, the wall
// (nil). The watchdog, the retry backoff, Time and Duration read it.
func (s *Scanner) arm(ctx context.Context, addr string) (context.Context, *memconn.Timeline, uaclient.Options, *retrier) {
	var tl *memconn.Timeline
	if _, ok := s.Dialer.(simnet.View); ok {
		tl = memconn.NewTimeline()
		ctx = memconn.WithTimeline(ctx, tl)
	}
	opts := s.opts()
	if s.Resilience.GrabTimeout > 0 {
		opts.HardDeadline = tl.Now().Add(s.Resilience.GrabTimeout)
	}
	return ctx, tl, opts, s.newRetrier(addr, tl)
}

// Grab scans one target completely, walking on w, the scratch its
// worker keeps across grabs (nil: scratch of its own).
func (s *Scanner) Grab(ctx context.Context, target Target, w *uaclient.Walker) *Result {
	ctx, tl, opts, rt := s.arm(ctx, target.Address)
	start := tl.Now()
	res := &Result{Address: target.Address, Via: target.Via, Time: start}
	defer func() { res.Duration = tl.Now().Sub(start) }()

	// The exchange trace (nil when disabled; every span call below is
	// then one pointer check) records open→handshake→session→close under
	// the deterministic (seed, wave, address) ID.
	var ex *telemetry.Exchange
	if s.Trace != nil {
		ex = telemetry.NewExchange(s.TraceSeed, s.TraceWave, target.Address)
		defer func() { s.Trace.Record(ex) }()
	}

	url := "opc.tcp://" + target.Address

	// Step 1: endpoint discovery over an insecure channel. The retry
	// budget (when armed) wraps the whole exchange: a reset or refused
	// dial is retried with an incremented context attempt number, which
	// is how the stateless connect-refuse flap sees persistence. The
	// connection stays open: steps 2 and 4 send on it what needs no
	// channel of its own.
	openStart := ex.Start()
	var disc *uaclient.Client
	var eps []uamsg.EndpointDescription
	err, exhausted := s.runExchange(ctx, rt, func(dctx context.Context) error {
		c, err := uaclient.Dial(dctx, url, opts)
		if err != nil {
			return err
		}
		if err = c.OpenInsecureChannel(); err == nil {
			eps, err = c.GetEndpoints()
		}
		if err != nil {
			release(res, c)
			return &discoveryError{err}
		}
		disc = c
		return nil
	})
	if err != nil {
		res.Error = err.Error()
		s.recordFailure(res, err, exhausted)
		ex.EndSpan("open", openStart, res.Error)
		return res
	}
	res.ReachedOPCUA = true
	s.recordEndpoints(res, target.Address, eps)

	// Step 2: discovery references (FindServers) for follow-ups.
	followDiscovery(disc, url, res)
	ex.EndSpan("open", openStart, "")

	// Step 3: secure-channel attempt with our self-signed certificate
	// whenever Sign or SignAndEncrypt is offered, on a connection of its
	// own (a connection carries one secure channel). The channel is kept
	// open in case step 4 can ride on it.
	policy, mode := strongestSecure(res.Endpoints)
	var secure *uaclient.Client
	if policy != nil {
		hsStart := ex.Start()
		secure = s.attemptSecureChannel(ctx, rt, url, opts, res, policy, mode)
		ex.EndSpan("handshake", hsStart, res.SecureChannel.Error)
	}

	// Step 4: anonymous session and address-space traversal, on a channel
	// the grab already has whenever one fits: the probe's when the session
	// would use exactly its (policy, mode) — one RSA handshake instead of
	// two against servers that enforce a single secure configuration —
	// and the discovery connection's for None/None, unless that
	// connection failed below the service layer. Only a session that
	// needs a third configuration dials.
	res.Session.Offered = anonymousOffered(res.Endpoints)
	if res.Session.Offered {
		sessStart := ex.Start()
		sessPolicy, sessMode := channelForSession(res.Endpoints)
		switch {
		case secure != nil && sessPolicy == policy && sessMode == mode:
			s.runAnonymousSession(ctx, secure, res, w)
		case sessPolicy == uapolicy.None && sessMode == uamsg.SecurityModeNone && !disc.Broken():
			s.runAnonymousSession(ctx, disc, res, w)
		default:
			s.attemptAnonymous(ctx, rt, url, opts, res, sessPolicy, sessMode, w)
		}
		ex.EndSpan("session", sessStart, res.Session.Error)
	}
	closeStart := ex.Start()
	if secure != nil {
		release(res, secure)
	}
	release(res, disc)
	ex.EndSpan("close", closeStart, "")
	return res
}

// release closes a connection of the grab and adds its traffic to the
// result. Every connection the grab dials ends here, so each is counted
// exactly once, whether the probe on it succeeded or not.
func release(res *Result, c *uaclient.Client) {
	r, w := c.BytesTransferred()
	res.BytesTransferred += r + w
	_ = c.Close()
}

func (s *Scanner) recordEndpoints(res *Result, scanned string, eps []uamsg.EndpointDescription) {
	seenFollow := map[string]bool{}
	for _, ep := range eps {
		info := EndpointInfo{
			URL:               ep.EndpointURL,
			SecurityMode:      ep.SecurityMode,
			SecurityPolicyURI: ep.SecurityPolicyURI,
		}
		for _, tp := range ep.UserIdentityTokens {
			info.TokenTypes = append(info.TokenTypes, tp.TokenType)
		}
		res.Endpoints = append(res.Endpoints, info)
		if len(ep.ServerCertificate) > 0 && res.ServerCertDER == nil {
			res.ServerCertDER = ep.ServerCertificate
		}
		if res.ApplicationURI == "" {
			res.ApplicationURI = ep.Server.ApplicationURI
			res.ProductURI = ep.Server.ProductURI
			res.ApplicationType = ep.Server.ApplicationType
		}
		if addr, err := uaclient.EndpointAddress(ep.EndpointURL); err == nil &&
			addr != scanned && !seenFollow[addr] {
			seenFollow[addr] = true
			res.FollowUp = append(res.FollowUp, addr)
		}
	}
}

// followDiscovery asks FindServers on the discovery connection and adds
// the advertised discovery URLs to the follow-ups. A failure leaves the
// follow-ups as they are; one below the service layer also marks c
// broken, which keeps the session probe off it.
func followDiscovery(c *uaclient.Client, url string, res *Result) {
	servers, err := c.FindServers()
	if err != nil {
		return
	}
	scanned, _ := uaclient.EndpointAddress(url)
	seen := map[string]bool{}
	for _, f := range res.FollowUp {
		seen[f] = true
	}
	for _, srv := range servers {
		for _, durl := range srv.DiscoveryURLs {
			if addr, err := uaclient.EndpointAddress(durl); err == nil &&
				addr != scanned && !seen[addr] {
				seen[addr] = true
				res.FollowUp = append(res.FollowUp, addr)
			}
		}
	}
}

// strongestSecure picks the highest-ranked secure (policy, mode) pair.
func strongestSecure(eps []EndpointInfo) (*uapolicy.Policy, uamsg.MessageSecurityMode) {
	var best *uapolicy.Policy
	var bestMode uamsg.MessageSecurityMode
	for _, ep := range eps {
		if ep.SecurityMode != uamsg.SecurityModeSign &&
			ep.SecurityMode != uamsg.SecurityModeSignAndEncrypt {
			continue
		}
		p, ok := uapolicy.Lookup(ep.SecurityPolicyURI)
		if !ok || p.Insecure {
			continue
		}
		better := best == nil || p.Rank > best.Rank ||
			(p.Rank == best.Rank && ep.SecurityMode > bestMode)
		if better {
			best, bestMode = p, ep.SecurityMode
		}
	}
	return best, bestMode
}

func anonymousOffered(eps []EndpointInfo) bool {
	for _, ep := range eps {
		for _, tt := range ep.TokenTypes {
			if tt == uamsg.UserTokenAnonymous {
				return true
			}
		}
	}
	return false
}

// attemptSecureChannel probes the strongest advertised secure (policy,
// mode). On success it returns the still-open client so the caller can
// reuse the channel for the session probe; the caller then owns
// releasing it.
func (s *Scanner) attemptSecureChannel(ctx context.Context, rt *retrier, url string, opts uaclient.Options,
	res *Result, policy *uapolicy.Policy, mode uamsg.MessageSecurityMode) *uaclient.Client {
	res.SecureChannel = SecureChannelResult{
		Attempted: true,
		PolicyURI: policy.URI,
		Mode:      mode,
	}
	c, err := s.dialRetry(ctx, rt, url, opts)
	if err != nil {
		res.SecureChannel.Error = err.Error()
		return nil
	}
	err = c.OpenChannel(s.channelSecurity("secure-probe", policy, mode, res.ServerCertDER))
	if err != nil {
		res.SecureChannel.Error = err.Error()
		var ce uamsg.ConnError
		if errors.As(err, &ce) && ce.Code == uastatus.BadSecurityChecksFailed {
			res.SecureChannel.CertRejected = true
			if cm := s.channelMetrics(policy, mode); cm != nil {
				cm.CertRejected.Inc()
			}
		}
		release(res, c)
		return nil
	}
	res.SecureChannel.OK = true
	return c
}

// channelForSession picks the channel security for the anonymous session:
// None if offered, otherwise the weakest secure endpoint (the scanner
// minimizes load on constrained devices).
func channelForSession(eps []EndpointInfo) (*uapolicy.Policy, uamsg.MessageSecurityMode) {
	var weakest *uapolicy.Policy
	var weakestMode uamsg.MessageSecurityMode
	for _, ep := range eps {
		p, ok := uapolicy.Lookup(ep.SecurityPolicyURI)
		if !ok {
			continue
		}
		if ep.SecurityMode == uamsg.SecurityModeNone {
			return uapolicy.None, uamsg.SecurityModeNone
		}
		if weakest == nil || p.Rank < weakest.Rank {
			weakest, weakestMode = p, ep.SecurityMode
		}
	}
	if weakest == nil {
		return uapolicy.None, uamsg.SecurityModeNone
	}
	return weakest, weakestMode
}

// attemptAnonymous dials a fresh connection for the session probe (used
// when the session needs a channel the grab does not have open).
func (s *Scanner) attemptAnonymous(ctx context.Context, rt *retrier, url string, opts uaclient.Options,
	res *Result, policy *uapolicy.Policy, mode uamsg.MessageSecurityMode, w *uaclient.Walker) {
	res.Session.Attempted = true
	c, err := s.dialRetry(ctx, rt, url, opts)
	if err != nil {
		res.Session.Error = err.Error()
		return
	}
	defer release(res, c)
	if err := c.OpenChannel(s.channelSecurity("session-probe", policy, mode, res.ServerCertDER)); err != nil {
		res.Session.Error = err.Error()
		return
	}
	s.runAnonymousSession(ctx, c, res, w)
}

// runAnonymousSession performs the anonymous session and traversal on
// an already-open channel. It does not release the client — the caller
// owns the connection (it may be the discovery connection or the
// secure-channel probe's).
func (s *Scanner) runAnonymousSession(ctx context.Context, c *uaclient.Client, res *Result, w *uaclient.Walker) {
	res.Session.Attempted = true
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		res.Session.Error = err.Error()
		return
	}
	res.Session.OK = true

	if ver, err := c.SoftwareVersion(); err == nil {
		res.SoftwareVersion = ver
	}
	walk, _ := c.Walk(ctx, s.Walk, w) // a walk reports its end in the result
	res.Namespaces = walk.Namespaces
	if len(walk.Nodes) > 0 {
		res.Nodes = make([]NodeRecord, 0, len(walk.Nodes))
	}
	for _, n := range walk.Nodes {
		rec := NodeRecord{
			ID:          n.ID.String(),
			Class:       n.Class.String(),
			DisplayName: n.DisplayName,
		}
		switch n.Class {
		case uamsg.NodeClassVariable:
			rec.Readable = n.UserAccessLevel.CanRead()
			rec.Writable = n.UserAccessLevel.CanWrite()
			res.NodeStats.Variables++
			if rec.Readable {
				res.NodeStats.Readable++
			}
			if rec.Writable {
				res.NodeStats.Writable++
			}
		case uamsg.NodeClassMethod:
			rec.Executable = n.UserExecutable
			res.NodeStats.Methods++
			if rec.Executable {
				res.NodeStats.Executable++
			}
		}
		if n.Value != nil {
			rec.ValueSample = sampleValue(*n.Value)
		}
		res.Nodes = append(res.Nodes, rec)
	}
	_ = c.CloseSession()
}

func sampleValue(v uatypes.Variant) string {
	s := v.String()
	if len(s) > 64 {
		s = s[:64]
	}
	return s
}
