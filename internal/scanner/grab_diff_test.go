package scanner

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uaserver"
)

// referenceGrab is Grab as of commit 286d6b5, verbatim but for the
// timeline every grab now runs on (Scanner.arm) and the walk scratch it
// is handed: one connection
// per step — GetEndpoints, FindServers, the secure probe, the session —
// so up to four per host. It exists only as the oracle of
// TestGrabMatchesFourDialGrab: whatever Grab learns on fewer connections
// must be what this learns on four.
func (s *Scanner) referenceGrab(ctx context.Context, target Target, w *uaclient.Walker) *Result {
	ctx, tl, opts, rt := s.arm(ctx, target.Address)
	start := tl.Now()
	res := &Result{Address: target.Address, Via: target.Via, Time: start}
	defer func() { res.Duration = tl.Now().Sub(start) }()

	var ex *telemetry.Exchange
	if s.Trace != nil {
		ex = telemetry.NewExchange(s.TraceSeed, s.TraceWave, target.Address)
		defer func() { s.Trace.Record(ex) }()
	}

	url := "opc.tcp://" + target.Address

	// Step 1: endpoint discovery over an insecure channel.
	openStart := ex.Start()
	var eps []uamsg.EndpointDescription
	err, exhausted := s.runExchange(ctx, rt, func(dctx context.Context) error {
		c, err := uaclient.Dial(dctx, url, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.OpenInsecureChannel(); err != nil {
			return &discoveryError{err}
		}
		e, err := c.GetEndpoints()
		if err != nil {
			return &discoveryError{err}
		}
		eps = e
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
	s.referenceFollowDiscovery(ctx, rt, url, opts, res)
	ex.EndSpan("open", openStart, "")

	// Step 3: secure-channel attempt with our self-signed certificate.
	policy, mode := strongestSecure(res.Endpoints)
	var secure *uaclient.Client
	if policy != nil {
		hsStart := ex.Start()
		secure = s.attemptSecureChannel(ctx, rt, url, opts, res, policy, mode)
		ex.EndSpan("handshake", hsStart, res.SecureChannel.Error)
	}

	// Step 4: anonymous session and address-space traversal.
	res.Session.Offered = anonymousOffered(res.Endpoints)
	if res.Session.Offered {
		sessStart := ex.Start()
		sessPolicy, sessMode := channelForSession(res.Endpoints)
		if secure != nil && sessPolicy == policy && sessMode == mode {
			s.runAnonymousSession(ctx, secure, res, w)
		} else {
			s.attemptAnonymous(ctx, rt, url, opts, res, sessPolicy, sessMode, w)
		}
		ex.EndSpan("session", sessStart, res.Session.Error)
	}
	closeStart := ex.Start()
	if secure != nil {
		r, w := secure.BytesTransferred()
		res.BytesTransferred += r + w
		_ = secure.Close()
	}
	ex.EndSpan("close", closeStart, "")
	return res
}

func (s *Scanner) referenceFollowDiscovery(ctx context.Context, rt *retrier, url string, opts uaclient.Options, res *Result) {
	c, err := s.dialRetry(ctx, rt, url, opts)
	if err != nil {
		return
	}
	defer c.Close()
	if err := c.OpenInsecureChannel(); err != nil {
		return
	}
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
	r, w := c.BytesTransferred()
	res.BytesTransferred += r + w
}

// countingDialer counts the connections a grab asks for. It is still
// the simulated Internet, so the grab keeps its virtual timeline.
type countingDialer struct {
	simnet.View
	dials atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	c.dials.Add(1)
	return c.View.DialContext(ctx, network, address)
}

// sameGrab fails unless the two results agree in everything but the
// byte count, Time and Duration included (each is read off its grab's
// own timeline). The reference keeps the old Grab's traffic
// accounting, which left the GetEndpoints connection uncounted.
func sameGrab(t *testing.T, what string, ref, got *Result) {
	t.Helper()
	a, b := *ref, *got
	a.BytesTransferred, b.BytesTransferred = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: the grabs differ\n reference: %+v\n      grab: %+v", what, a, b)
	}
}

// misbehaving serves its first connection through a conn that fails
// after the server's nth write: closed (what a server that drops idle
// discovery channels does) or answered with bytes that are no frame.
// Every later connection is served normally.
type misbehaving struct {
	srv     *uaserver.Server
	after   int
	garbage bool
	conns   atomic.Int64
}

func (m *misbehaving) HandleConn(conn net.Conn) {
	if m.conns.Add(1) == 1 {
		conn = &failingConn{Conn: conn, m: m}
	}
	m.srv.HandleConn(conn)
}

type failingConn struct {
	net.Conn
	m      *misbehaving
	writes int
}

func (f *failingConn) Write(p []byte) (int, error) {
	f.writes++
	switch {
	case f.writes <= f.m.after:
		n, err := f.Conn.Write(p)
		if f.writes == f.m.after && !f.m.garbage {
			_ = f.Conn.Close()
		}
		return n, err
	case f.m.garbage:
		return f.Conn.Write(bytes.Repeat([]byte{'?'}, len(p)))
	}
	return f.Conn.Write(p)
}

// TestGrabMatchesFourDialGrab pins what connection reuse may not change
// and what it must: over every server profile the result equals the
// four-dial grab's, on the stated number of connections.
func TestGrabMatchesFourDialGrab(t *testing.T) {
	key, err := rsa.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := uacert.Generate(key, uacert.Options{CommonName: "host", ApplicationURI: "urn:diff:host"})
	if err != nil {
		t.Fatal(err)
	}
	none := uaserver.EndpointConfig{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}}
	strong := uaserver.EndpointConfig{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
		uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt}}
	strongOnly := uaserver.EndpointConfig{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
		uamsg.SecurityModeSignAndEncrypt}}
	weak := uaserver.EndpointConfig{Policy: uapolicy.Basic128Rsa15, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeSign}}
	anon := []uamsg.UserTokenType{uamsg.UserTokenAnonymous}
	userOnly := []uamsg.UserTokenType{uamsg.UserTokenUserName}

	const addr, hiddenAddr = "192.0.2.1:4840", "192.0.2.2:4841"
	profiles := []struct {
		name  string
		cfg   uaserver.Config
		addr  string
		dials int64
		// fails makes the first connection misbehave after that many
		// server writes (acknowledge, OPN response, GetEndpoints
		// response, ...); garbage says how.
		fails   int
		garbage bool
		check   func(t *testing.T, res *Result)
	}{
		{name: "None only, anonymous", dials: 1,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || len(res.Nodes) == 0 || res.SecureChannel.Attempted {
					t.Errorf("session %+v, %d nodes, secure %+v", res.Session, len(res.Nodes), res.SecureChannel)
				}
			}},
		{name: "None and secure, anonymous", dials: 2,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none, strong}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || !res.SecureChannel.OK {
					t.Errorf("session %+v, secure %+v", res.Session, res.SecureChannel)
				}
			}},
		{name: "secure only, session rides the probe channel", dials: 2,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{strongOnly}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || !res.SecureChannel.OK {
					t.Errorf("session %+v, secure %+v", res.Session, res.SecureChannel)
				}
			}},
		{name: "secure only, session needs the weaker channel", dials: 3,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{weak, strong}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || !res.SecureChannel.OK {
					t.Errorf("session %+v, secure %+v", res.Session, res.SecureChannel)
				}
			}},
		{name: "anonymous not offered", dials: 2,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none, strong}, TokenTypes: userOnly},
			check: func(t *testing.T, res *Result) {
				if res.Session.Offered || res.Session.Attempted {
					t.Errorf("session %+v", res.Session)
				}
			}},
		{name: "anonymous offered, sessions rejected", dials: 2,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none, strong}, TokenTypes: anon,
				Quirks: uaserver.Quirks{RejectSessions: true}},
			check: func(t *testing.T, res *Result) {
				if !res.Session.Attempted || res.Session.OK || res.Session.Error == "" {
					t.Errorf("session %+v", res.Session)
				}
			}},
		{name: "certificate rejected, None offered", dials: 2,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none, strong}, TokenTypes: anon,
				Quirks: uaserver.Quirks{RejectClientCert: true}},
			check: func(t *testing.T, res *Result) {
				if !res.SecureChannel.CertRejected || !res.Session.OK {
					t.Errorf("secure %+v, session %+v", res.SecureChannel, res.Session)
				}
			}},
		{name: "certificate rejected, secure only", dials: 3,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{strongOnly}, TokenTypes: anon,
				Quirks: uaserver.Quirks{RejectClientCert: true}},
			check: func(t *testing.T, res *Result) {
				if !res.SecureChannel.CertRejected || res.Session.OK || res.Session.Error == "" {
					t.Errorf("secure %+v, session %+v", res.SecureChannel, res.Session)
				}
			}},
		{name: "discovery server with follow-ups", dials: 1,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none}, Discovery: true,
				ExtraEndpointURLs: []string{"opc.tcp://192.0.2.3:4840"},
				KnownServers: []uamsg.ApplicationDescription{{
					ApplicationURI: "urn:diff:hidden", DiscoveryURLs: []string{"opc.tcp://" + hiddenAddr},
				}}},
			check: func(t *testing.T, res *Result) {
				if want := []string{"192.0.2.3:4840", hiddenAddr}; !reflect.DeepEqual(res.FollowUp, want) {
					t.Errorf("follow-ups %v, want %v", res.FollowUp, want)
				}
				if res.Session.OK || res.Session.Error == "" {
					t.Errorf("session %+v", res.Session)
				}
			}},
		{name: "hidden host on a referenced port", dials: 1, addr: hiddenAddr,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK {
					t.Errorf("session %+v", res.Session)
				}
			}},
		// The fallback: a discovery connection that failed below the
		// service layer is not reused, the session probe dials.
		{name: "server closes after GetEndpoints", dials: 2, fails: 3,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || len(res.Nodes) == 0 {
					t.Errorf("session %+v, %d nodes", res.Session, len(res.Nodes))
				}
			}},
		{name: "FindServers answered with garbage", dials: 2, fails: 3, garbage: true,
			cfg: uaserver.Config{Endpoints: []uaserver.EndpointConfig{none}, TokenTypes: anon},
			check: func(t *testing.T, res *Result) {
				if !res.Session.OK || len(res.Nodes) == 0 {
					t.Errorf("session %+v, %d nodes", res.Session, len(res.Nodes))
				}
			}},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			if p.addr == "" {
				p.addr = addr
			}
			cfg := p.cfg
			cfg.ApplicationURI = "urn:diff:host"
			cfg.EndpointURL = "opc.tcp://" + p.addr
			cfg.Key, cfg.CertDER = key, cert.Raw
			srv, err := uaserver.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ap := netip.MustParseAddrPort(p.addr)
			// One network per grab: a misbehaving host counts its
			// connections.
			grab := func(f func(*Scanner, context.Context, Target, *uaclient.Walker) *Result) (*Result, int64) {
				b := newWorld(t, 28, 0)
				var h simnet.ConnHandler = srv
				if p.fails > 0 {
					h = &misbehaving{srv: srv, after: p.fails, garbage: p.garbage}
				}
				b.AddHost(ap.Addr(), int(ap.Port()), 65000, h)
				nw := b.Build()
				d := &countingDialer{View: nw}
				sc := newScanner(t, nw)
				sc.Dialer = d
				return f(sc, context.Background(), Target{Address: p.addr, Via: ViaPortScan}, nil), d.dials.Load()
			}
			ref, _ := grab((*Scanner).referenceGrab)
			got, dials := grab((*Scanner).Grab)
			sameGrab(t, p.name, ref, got)
			if !got.ReachedOPCUA {
				t.Fatalf("grab failed: %s", got.Error)
			}
			p.check(t, got)
			if dials != p.dials {
				t.Errorf("Grab dialed %d times, want %d", dials, p.dials)
			}
		})
	}
}

// TestGrabMatchesFourDialGrabOnDeployWorld sweeps the study's world at
// its last wave — every profile deploy builds, discovery servers and
// referenced hosts included — politely, and a sample of it under each
// chaos kind with the retry budget armed (one snapshot per kind, taken
// after the chaos model is installed), and requires Grab ≡ the four-dial
// grab host by host.
func TestGrabMatchesFourDialGrabOnDeployWorld(t *testing.T) {
	spec, err := deploy.BuildSpec(2020)
	if err != nil {
		t.Fatal(err)
	}
	world, err := deploy.Materialize(spec, deploy.Options{TestKeySizes: true, NoiseProb: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	states, err := world.WaveEndpointStates(7)
	if err != nil {
		t.Fatal(err)
	}
	var present []netip.AddrPort
	for _, st := range states {
		if st.Present {
			present = append(present, netip.MustParseAddrPort(st.Address))
		}
	}
	slices.SortFunc(present, netip.AddrPort.Compare)
	var all []Target
	for _, ap := range present {
		via := ViaPortScan
		if ap.Port() != 4840 {
			via = ViaReference
		}
		all = append(all, Target{Address: ap.String(), Via: via})
	}

	kinds := []chaos.Kind{chaos.KindNone, chaos.KindTarpit, chaos.KindReset, chaos.KindFlap,
		chaos.KindTruncate, chaos.KindCorrupt, chaos.KindOversize, chaos.KindGarbage}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sc := newScanner(t, nil)
			targets := all
			if kind == chaos.KindNone {
				world.SetChaos(chaos.Model{})
			} else {
				// A fifth of the hosts, under the retry budget. A host
				// that stalls costs its deadline on the grab's timeline,
				// not on the wall.
				sc.Resilience = Resilience{
					Classify: true, Retries: 2, Seed: 14,
					BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
				}
				targets = nil
				for i := 0; i < len(all); i += 5 {
					targets = append(targets, all[i])
				}
				world.SetChaos(chaos.Model{Seed: 14, Prob: 0.35, Kinds: []chaos.Kind{kind}})
			}
			defer world.SetChaos(chaos.Model{})
			view, err := world.SnapshotWave(7)
			if err != nil {
				t.Fatal(err)
			}
			sc.Dialer = view

			type pair struct{ ref, got *Result }
			pairs := make([]pair, len(targets))
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						pairs[i] = pair{
							ref: sc.referenceGrab(context.Background(), targets[i], nil),
							got: sc.Grab(context.Background(), targets[i], nil),
						}
					}
				}()
			}
			for i := range targets {
				next <- i
			}
			close(next)
			wg.Wait()

			var opcua, failed, followers, rejected, secureOnly, sessions int
			for i, p := range pairs {
				sameGrab(t, targets[i].Address, p.ref, p.got)
				switch got := p.got; {
				case !got.ReachedOPCUA:
					failed++
				default:
					opcua++
					if len(got.FollowUp) > 0 {
						followers++
					}
					if got.SecureChannel.CertRejected {
						rejected++
					}
					if p, _ := channelForSession(got.Endpoints); p != uapolicy.None {
						secureOnly++
					}
					if got.Session.OK {
						sessions++
					}
				}
			}
			t.Logf("%d hosts: %d OPC UA (%d with follow-ups, %d rejecting our certificate, %d secure only, %d sessions), %d failed",
				len(pairs), opcua, followers, rejected, secureOnly, sessions, failed)
			if kind == chaos.KindNone {
				if failed != 0 || followers == 0 || rejected == 0 || secureOnly == 0 || sessions == 0 {
					t.Error("the polite sweep misses a profile the comparison is meant to cover")
				}
			} else if failed == 0 && kind != chaos.KindFlap && kind != chaos.KindCorrupt {
				// (A flap within the retry budget and a corrupted limit
				// both end in a complete grab.)
				t.Errorf("no host failed under %v", kind)
			}
		})
	}
}

// TestStageDeadlinesFireOnlyWhenStuck is the virtual-time gate: a stage
// deadline fires only once the grab's exchange can make no other
// progress, so its length cannot change a result. Every host of a small
// chaos-mixed world is grabbed under the shipped armor and again with
// every stage deadline at 1 ns; ConnectTimeout and GrabTimeout keep
// their shipped values. On a wall-clock deadline the second sweep would
// time out every host it reaches. Only Duration may differ, as a stall
// under the 1 ns armor ends after 1 ns: a grab that took no time under
// one armor takes none under the other, and none takes longer under
// the 1 ns one.
func TestStageDeadlinesFireOnlyWhenStuck(t *testing.T) {
	spec, err := deploy.BuildSpec(2020)
	if err != nil {
		t.Fatal(err)
	}
	world, err := deploy.Materialize(spec, deploy.Options{TestKeySizes: true, MaxHosts: 120, NoiseProb: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	model, err := chaos.ModelForProfile("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	world.SetChaos(model)
	view, err := world.SnapshotWave(7)
	if err != nil {
		t.Fatal(err)
	}
	open, err := PortScan(context.Background(), view, PortScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var targets []Target
	for _, ip := range open {
		targets = append(targets, Target{Address: netip.AddrPortFrom(ip, simnet.ScanPort).String(), Via: ViaPortScan})
	}
	states, err := world.WaveEndpointStates(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if ap := netip.MustParseAddrPort(st.Address); st.Present && ap.Port() != simnet.ScanPort {
			targets = append(targets, Target{Address: st.Address, Via: ViaReference})
		}
	}

	shipped := newScanner(t, view)
	shipped.Resilience = DefaultResilience(7)
	instant := *shipped
	instant.Resilience.HelloTimeout = time.Nanosecond
	instant.Resilience.OpenTimeout = time.Nanosecond
	instant.Resilience.RequestTimeout = time.Nanosecond
	classes := map[string]int{}
	for _, target := range targets {
		want := shipped.Grab(context.Background(), target, nil)
		got := instant.Grab(context.Background(), target, nil)
		if (got.Duration == 0) != (want.Duration == 0) || got.Duration > want.Duration {
			t.Errorf("%s: the 1 ns armor's grab took %v, the shipped one's %v",
				target.Address, got.Duration, want.Duration)
		}
		got.Duration = want.Duration
		sameGrab(t, target.Address, want, got)
		classes[want.FailureClass]++
	}
	t.Logf("%d hosts by failure class: %v", len(targets), classes)
	if classes[FailTimeout] == 0 || classes[""] == 0 {
		t.Error("the sweep needs hosts that time out and hosts that answer")
	}
}
