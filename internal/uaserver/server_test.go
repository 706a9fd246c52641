package uaserver

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	mrand "math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

var (
	idOnce sync.Once
	srvKey *rsa.PrivateKey
	srvCrt *uacert.Certificate
	cliKey *rsa.PrivateKey
	cliCrt *uacert.Certificate
)

func ids(t testing.TB) {
	t.Helper()
	idOnce.Do(func() {
		var err error
		if srvKey, err = rsa.GenerateKey(rand.Reader, 512); err != nil {
			t.Fatal(err)
		}
		if srvCrt, err = uacert.Generate(srvKey, uacert.Options{
			CommonName: "testsrv", ApplicationURI: "urn:test:server",
		}); err != nil {
			t.Fatal(err)
		}
		if cliKey, err = rsa.GenerateKey(rand.Reader, 512); err != nil {
			t.Fatal(err)
		}
		if cliCrt, err = uacert.Generate(cliKey, uacert.Options{
			CommonName: "testcli", ApplicationURI: "urn:test:client",
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// startTestServer builds a server on a loopback listener.
func startTestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	ids(t)
	space := addrspace.New("urn:test:server", "2.1.0")
	if _, err := addrspace.Populate(space, addrspace.BuildOptions{
		Profile:            addrspace.ProfileProduction,
		Variables:          20,
		Methods:            5,
		AnonReadableFrac:   1.0,
		AnonWritableFrac:   0.5,
		AnonExecutableFrac: 1.0,
		Rand:               mrand.New(mrand.NewSource(42)),
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ApplicationURI:  "urn:test:server",
		ProductURI:      "urn:test:product",
		ApplicationName: "Test Server",
		SoftwareVersion: "2.1.0",
		EndpointURL:     "opc.tcp://127.0.0.1:0",
		Endpoints: []EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
			{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt}},
		},
		TokenTypes: []uamsg.UserTokenType{uamsg.UserTokenAnonymous, uamsg.UserTokenUserName},
		Users:      map[string]string{"operator": "secret"},
		Key:        srvKey,
		CertDER:    srvCrt.Raw,
		Space:      space,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, "opc.tcp://" + serve(t, l, srv.HandleConn)
}

// serve accepts connections on l and hands each one to handle until
// the test ends. The simulated Internet hands its connections to
// HandleConn directly; a real loopback listener needs this loop.
func serve(t *testing.T, l net.Listener, handle func(net.Conn)) string {
	var conns sync.WaitGroup
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-accepting
		conns.Wait()
	})
	return l.Addr().String()
}

func dialInsecure(t *testing.T, url string) *uaclient.Client {
	t.Helper()
	c, err := uaclient.Dial(context.Background(), url, uaclient.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.OpenInsecureChannel(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetEndpointsAdvertisesConfiguredSecurity(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	eps, err := c.GetEndpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 { // None/None, B256S256/Sign, B256S256/S&E
		t.Fatalf("endpoints = %d", len(eps))
	}
	seen := map[string]bool{}
	for _, ep := range eps {
		seen[ep.SecurityPolicyURI+"/"+ep.SecurityMode.String()] = true
		if len(ep.ServerCertificate) == 0 {
			t.Error("endpoint missing server certificate")
		}
		if ep.Server.ApplicationURI != "urn:test:server" {
			t.Errorf("application URI = %q", ep.Server.ApplicationURI)
		}
		if len(ep.UserIdentityTokens) != 2 {
			t.Errorf("token policies = %d", len(ep.UserIdentityTokens))
		}
	}
	if !seen[uapolicy.URINone+"/None"] ||
		!seen[uapolicy.URIBasic256Sha256+"/Sign"] ||
		!seen[uapolicy.URIBasic256Sha256+"/SignAndEncrypt"] {
		t.Errorf("endpoint set = %v", seen)
	}
}

func TestAnonymousSessionBrowseReadCall(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	// Namespace array reveals the production namespace.
	ns, err := c.NamespaceArray()
	if err != nil {
		t.Fatal(err)
	}
	if addrspace.Classify(ns) != addrspace.Production {
		t.Errorf("classification of %v", ns)
	}
	ver, err := c.SoftwareVersion()
	if err != nil || ver != "2.1.0" {
		t.Errorf("software version = %q, %v", ver, err)
	}

	refs, err := c.Browse(addrspace.ObjectsFolder())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 { // Server + Application
		t.Fatalf("objects children = %d", len(refs))
	}

	// Walk the full space and verify exposure counts match ground truth.
	res, err := c.Walk(context.Background(), uaclient.WalkOptions{MaxNodes: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var readable, writable, exec, vars, methods int
	for _, n := range res.Nodes {
		switch n.Class {
		case uamsg.NodeClassVariable:
			vars++
			if n.UserAccessLevel.CanRead() {
				readable++
			}
			if n.UserAccessLevel.CanWrite() {
				writable++
			}
		case uamsg.NodeClassMethod:
			methods++
			if n.UserExecutable {
				exec++
			}
		}
	}
	if vars < 20 || methods != 5 {
		t.Errorf("walk saw %d vars, %d methods", vars, methods)
	}
	if exec != 5 {
		t.Errorf("executable methods = %d, want 5", exec)
	}
	if readable < 20 {
		t.Errorf("readable = %d", readable)
	}
	if writable == 0 || writable >= vars {
		t.Errorf("writable = %d of %d", writable, vars)
	}

	// Calling an anonymous-executable method succeeds and is a no-op.
	var methodID, objectID uatypes.NodeID
	for _, n := range res.Nodes {
		if n.Class == uamsg.NodeClassMethod {
			methodID = n.ID
			break
		}
	}
	objectID = uatypes.NewStringNodeID(methodID.Namespace, "Application")
	result, err := c.Call(objectID, methodID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if result.Status.IsBad() {
		t.Errorf("call status = %v", result.Status)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
}

func TestUserNamePasswordAuthentication(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	if err := c.CreateSession(userName("operator", "wrong")); err == nil {
		t.Fatal("wrong password accepted")
	} else {
		var se uaclient.ServiceError
		if !errors.As(err, &se) || se.Code != uastatus.BadUserAccessDenied {
			t.Errorf("error = %v", err)
		}
	}
	c2 := dialInsecure(t, url)
	if err := c2.CreateSession(userName("operator", "secret")); err != nil {
		t.Fatalf("valid credentials rejected: %v", err)
	}
}

func TestSecureChannelSessionEndToEnd(t *testing.T) {
	_, url := startTestServer(t, nil)
	c, err := uaclient.Dial(context.Background(), url, uaclient.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.OpenChannel(uaclient.ChannelSecurity{
		Policy:        uapolicy.Basic256Sha256,
		Mode:          uamsg.SecurityModeSignAndEncrypt,
		LocalKey:      cliKey,
		LocalCertDER:  cliCrt.Raw,
		RemoteCertDER: srvCrt.Raw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	dv, err := c.ReadValue(uatypes.NewNumericNodeID(0, uamsg.IDSoftwareVersion))
	if err != nil || dv.Value == nil || dv.Value.Str != "2.1.0" {
		t.Errorf("read over encrypted channel: %v %v", dv, err)
	}
}

func TestAnonymousRejectedWhenNotAdvertised(t *testing.T) {
	_, url := startTestServer(t, func(cfg *Config) {
		cfg.TokenTypes = []uamsg.UserTokenType{uamsg.UserTokenUserName}
	})
	c := dialInsecure(t, url)
	err := c.CreateSession(uaclient.AnonymousIdentity())
	var se uaclient.ServiceError
	if !errors.As(err, &se) || se.Code != uastatus.BadIdentityTokenRejected {
		t.Errorf("error = %v, want BadIdentityTokenRejected", err)
	}
}

func TestQuirkRejectSessions(t *testing.T) {
	_, url := startTestServer(t, func(cfg *Config) {
		cfg.Quirks.RejectSessions = true
	})
	c := dialInsecure(t, url)
	err := c.CreateSession(uaclient.AnonymousIdentity())
	var se uaclient.ServiceError
	if !errors.As(err, &se) || se.Code != uastatus.BadInternalError {
		t.Errorf("error = %v, want BadInternalError", err)
	}
}

func TestQuirkRejectClientCert(t *testing.T) {
	_, url := startTestServer(t, func(cfg *Config) {
		cfg.Quirks.RejectClientCert = true
	})
	c, err := uaclient.Dial(context.Background(), url, uaclient.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.OpenChannel(uaclient.ChannelSecurity{
		Policy:        uapolicy.Basic256Sha256,
		Mode:          uamsg.SecurityModeSignAndEncrypt,
		LocalKey:      cliKey,
		LocalCertDER:  cliCrt.Raw,
		RemoteCertDER: srvCrt.Raw,
	})
	var ce uamsg.ConnError
	if !errors.As(err, &ce) || ce.Code != uastatus.BadSecurityChecksFailed {
		t.Errorf("error = %v, want BadSecurityChecksFailed", err)
	}
	// The insecure discovery path still works on such hosts.
	c2 := dialInsecure(t, url)
	if _, err := c2.GetEndpoints(); err != nil {
		t.Errorf("GetEndpoints after cert rejection: %v", err)
	}
}

func TestDiscoveryServer(t *testing.T) {
	known := uamsg.ApplicationDescription{
		ApplicationURI: "urn:other:server",
		DiscoveryURLs:  []string{"opc.tcp://192.0.2.77:4841"},
	}
	_, url := startTestServer(t, func(cfg *Config) {
		cfg.Discovery = true
		cfg.KnownServers = []uamsg.ApplicationDescription{known}
		cfg.Endpoints = []EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
		}
	})
	c := dialInsecure(t, url)
	servers, err := c.FindServers()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Fatalf("servers = %d", len(servers))
	}
	if servers[0].ApplicationType != uamsg.ApplicationDiscoveryServer {
		t.Error("self description should be a discovery server")
	}
	if servers[1].DiscoveryURLs[0] != known.DiscoveryURLs[0] {
		t.Errorf("known server URL = %v", servers[1].DiscoveryURLs)
	}
	// Sessions are refused on discovery servers.
	err = c.CreateSession(uaclient.AnonymousIdentity())
	var se uaclient.ServiceError
	if !errors.As(err, &se) || se.Code != uastatus.BadServiceUnsupported {
		t.Errorf("error = %v, want BadServiceUnsupported", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	ids(t)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{EndpointURL: "opc.tcp://x:4840"}); err == nil {
		t.Error("config without endpoints accepted")
	}
	// Secure endpoint without a certificate must fail.
	if _, err := New(Config{
		EndpointURL: "opc.tcp://x:4840",
		Endpoints: []EndpointConfig{{Policy: uapolicy.Basic256Sha256,
			Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeSign}}},
	}); err == nil {
		t.Error("secure endpoint without cert accepted")
	}
	// None-only server without a certificate is fine (some hosts in the
	// paper do exactly this).
	if _, err := New(Config{
		EndpointURL: "opc.tcp://x:4840",
		Endpoints: []EndpointConfig{{Policy: uapolicy.None,
			Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}}},
	}); err != nil {
		t.Errorf("None-only server rejected: %v", err)
	}
}

func TestWalkRespectsLimits(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Walk(context.Background(), uaclient.WalkOptions{MaxNodes: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) > 5 || !res.Truncated || res.LimitHit != "nodes" {
		t.Errorf("nodes=%d truncated=%v limit=%s", len(res.Nodes), res.Truncated, res.LimitHit)
	}

	// Byte limit: tiny cap trips immediately.
	c2 := dialInsecure(t, url)
	if err := c2.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Walk(context.Background(), uaclient.WalkOptions{MaxBytes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Truncated || res2.LimitHit != "bytes" {
		t.Errorf("byte limit not enforced: %+v", res2)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, url := startTestServer(t, nil)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			c, err := uaclient.Dial(context.Background(), url, uaclient.Options{Timeout: 5 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.OpenInsecureChannel(); err != nil {
				errs <- err
				return
			}
			if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
				errs <- err
				return
			}
			_, err = c.NamespaceArray()
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestEndpointAddressParsing(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"opc.tcp://10.0.0.1:4840", "10.0.0.1:4840", true},
		{"opc.tcp://10.0.0.1:4841/path/x", "10.0.0.1:4841", true},
		{"opc.tcp://host", "host:4840", true},
		{"http://10.0.0.1", "", false},
		{"opc.tcp://", "", false},
	}
	for _, c := range cases {
		got, err := uaclient.EndpointAddress(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("EndpointAddress(%q) = %q, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("EndpointAddress(%q) should fail", c.in)
		}
	}
}

// userName is the identity of a user with credentials.
func userName(user, password string) uaclient.Identity {
	return uaclient.Identity{Token: &uamsg.UserNameIdentityToken{PolicyID: "0", UserName: user, Password: []byte(password)}}
}
