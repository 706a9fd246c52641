package uasc

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/uacert"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uastatus"
)

type testIdentity struct {
	key  *rsa.PrivateKey
	cert *uacert.Certificate
}

var (
	idOnce   sync.Once
	serverID testIdentity
	clientID testIdentity
	bigKeyID testIdentity // 1024-bit, for OAEP-SHA256 policies
)

func identities(t testing.TB) (server, client, big testIdentity) {
	t.Helper()
	idOnce.Do(func() {
		mk := func(bits int, cn string) testIdentity {
			key, err := rsa.GenerateKey(rand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := uacert.Generate(key, uacert.Options{
				CommonName:     cn,
				ApplicationURI: "urn:test:" + cn,
				SignatureHash:  uacert.HashSHA256,
			})
			if err != nil {
				t.Fatal(err)
			}
			return testIdentity{key: key, cert: cert}
		}
		serverID = mk(512, "server")
		clientID = mk(512, "client")
		bigKeyID = mk(1024, "bigserver")
	})
	return serverID, clientID, bigKeyID
}

// startServer runs Hello + Accept + a simple service loop on one pipe end.
func startServer(t *testing.T, conn net.Conn, cfg ServerConfig, limits Limits) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer conn.Close()
		tr, err := ServerHello(conn, limits)
		if err != nil {
			done <- err
			return
		}
		ch, err := Accept(tr, cfg)
		if err != nil {
			done <- err
			return
		}
		for {
			got, err := ch.Recv()
			if err != nil {
				done <- err
				return
			}
			switch m := got.Message.(type) {
			case *uamsg.CloseSecureChannelRequest:
				done <- nil
				return
			case *uamsg.GetEndpointsRequest:
				resp := &uamsg.GetEndpointsResponse{
					Header: uamsg.ResponseHeader{
						RequestHandle: m.Header.RequestHandle,
						ServiceResult: uastatus.Good,
					},
					Endpoints: []uamsg.EndpointDescription{{EndpointURL: m.EndpointURL}},
				}
				if err := ch.SendResponse(got.RequestID, resp); err != nil {
					done <- err
					return
				}
			default:
				done <- errors.New("unexpected request type")
				return
			}
		}
	}()
	return done
}

func serverCfg(t *testing.T, id testIdentity, policies ...*uapolicy.Policy) ServerConfig {
	t.Helper()
	allowed := make(map[string][]uamsg.MessageSecurityMode)
	for _, p := range policies {
		if p.Insecure {
			allowed[p.URI] = []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}
		} else {
			allowed[p.URI] = []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt,
			}
		}
	}
	return ServerConfig{
		Key:     id.key,
		CertDER: id.cert.Raw,
		AllowedModes: func(p *uapolicy.Policy) []uamsg.MessageSecurityMode {
			return allowed[p.URI]
		},
		LifetimeMS: 3600000,
	}
}

func dialPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	deadline := time.Now().Add(10 * time.Second)
	_ = c.SetDeadline(deadline)
	_ = s.SetDeadline(deadline)
	return c, s
}

func TestHandshakeAndRequestAllSecurityCombos(t *testing.T) {
	srv, cli, big := identities(t)
	combos := []struct {
		policy *uapolicy.Policy
		mode   uamsg.MessageSecurityMode
		server testIdentity
		client testIdentity
	}{
		{uapolicy.None, uamsg.SecurityModeNone, srv, cli},
		{uapolicy.Basic128Rsa15, uamsg.SecurityModeSign, srv, cli},
		{uapolicy.Basic128Rsa15, uamsg.SecurityModeSignAndEncrypt, srv, cli},
		{uapolicy.Basic256, uamsg.SecurityModeSign, srv, cli},
		{uapolicy.Basic256, uamsg.SecurityModeSignAndEncrypt, srv, cli},
		{uapolicy.Aes128Sha256RsaOaep, uamsg.SecurityModeSignAndEncrypt, srv, cli},
		{uapolicy.Basic256Sha256, uamsg.SecurityModeSign, srv, cli},
		{uapolicy.Basic256Sha256, uamsg.SecurityModeSignAndEncrypt, srv, cli},
		// RSA-PSS-SHA256 and OAEP-SHA256 need >512-bit keys on both ends.
		{uapolicy.Aes256Sha256RsaPss, uamsg.SecurityModeSignAndEncrypt, big, big},
	}
	for _, combo := range combos {
		name := combo.policy.Name + "/" + combo.mode.String()
		t.Run(name, func(t *testing.T) {
			cConn, sConn := dialPair(t)
			done := startServer(t, sConn, serverCfg(t, combo.server,
				uapolicy.None, uapolicy.Basic128Rsa15, uapolicy.Basic256,
				uapolicy.Aes128Sha256RsaOaep, uapolicy.Basic256Sha256,
				uapolicy.Aes256Sha256RsaPss), Limits{})

			tr, err := ClientHello(cConn, "opc.tcp://test:4840", Limits{})
			if err != nil {
				t.Fatalf("hello: %v", err)
			}
			sec := ChannelSecurity{Policy: combo.policy, Mode: combo.mode}
			if !combo.policy.Insecure {
				sec.LocalKey = combo.client.key
				sec.LocalCertDER = combo.client.cert.Raw
				sec.RemoteCertDER = combo.server.cert.Raw
			}
			ch, err := Open(tr, sec, 60000)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if ch.ChannelID == 0 || ch.TokenID == 0 {
				t.Error("channel/token id not assigned")
			}

			req := &uamsg.GetEndpointsRequest{EndpointURL: "opc.tcp://test:4840"}
			msg, err := ch.Request(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp, ok := msg.(*uamsg.GetEndpointsResponse)
			if !ok {
				t.Fatalf("unexpected response %T", msg)
			}
			if len(resp.Endpoints) != 1 || resp.Endpoints[0].EndpointURL != req.EndpointURL {
				t.Errorf("response = %+v", resp)
			}

			if err := ch.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("server: %v", err)
			}
			if err := ch.Close(); !errors.Is(err, ErrClosed) {
				t.Errorf("double close = %v", err)
			}
		})
	}
}

func TestMultiChunkMessages(t *testing.T) {
	srv, cli, _ := identities(t)
	for _, mode := range []uamsg.MessageSecurityMode{
		uamsg.SecurityModeNone, uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			cConn, sConn := dialPair(t)
			// Tiny buffers force chunking for any non-trivial payload.
			small := Limits{ReceiveBufSize: 8192, SendBufSize: 8192,
				MaxMessageSize: 1 << 20, MaxChunkCount: 64}
			policy := uapolicy.Basic256Sha256
			if mode == uamsg.SecurityModeNone {
				policy = uapolicy.None
			}
			done := make(chan error, 1)
			go func() {
				defer sConn.Close()
				tr, err := ServerHello(sConn, small)
				if err != nil {
					done <- err
					return
				}
				ch, err := Accept(tr, serverCfg(t, srv, policy))
				if err != nil {
					done <- err
					return
				}
				got, err := ch.Recv()
				if err != nil {
					done <- err
					return
				}
				req, ok := got.Message.(*uamsg.BrowseRequest)
				if !ok {
					done <- errors.New("expected BrowseRequest")
					return
				}
				// Respond with a payload much larger than one chunk.
				resp := &uamsg.BrowseResponse{
					Header: uamsg.ResponseHeader{ServiceResult: uastatus.Good},
				}
				refs := make([]uamsg.ReferenceDescription, len(req.NodesToBrowse)*20)
				for i := range refs {
					refs[i].BrowseName.Name = strings.Repeat("n", 200)
				}
				resp.Results = []uamsg.BrowseResult{{Status: uastatus.Good, References: refs}}
				done <- ch.SendResponse(got.RequestID, resp)
			}()

			tr, err := ClientHello(cConn, "opc.tcp://t:4840", small)
			if err != nil {
				t.Fatal(err)
			}
			sec := ChannelSecurity{Policy: policy, Mode: mode}
			if !policy.Insecure {
				sec.LocalKey = cli.key
				sec.LocalCertDER = cli.cert.Raw
				sec.RemoteCertDER = srv.cert.Raw
			}
			ch, err := Open(tr, sec, 60000)
			if err != nil {
				t.Fatal(err)
			}
			// Large request (many browse descriptions) and large response.
			req := &uamsg.BrowseRequest{NodesToBrowse: make([]uamsg.BrowseDescription, 60)}
			msg, err := ch.Request(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp, ok := msg.(*uamsg.BrowseResponse)
			if !ok {
				t.Fatalf("unexpected %T", msg)
			}
			if len(resp.Results[0].References) != 60*20 {
				t.Errorf("references = %d", len(resp.Results[0].References))
			}
			if err := <-done; err != nil {
				t.Fatalf("server: %v", err)
			}
			_ = ch.Close()
		})
	}
}

func TestServerRejectsClientCertificate(t *testing.T) {
	// The paper's "Certificate not accepted" class: 80 hosts abort secure
	// channel establishment when offered a self-signed scanner cert.
	srv, cli, _ := identities(t)
	cConn, sConn := dialPair(t)
	cfg := serverCfg(t, srv, uapolicy.Basic256Sha256)
	cfg.ValidateClientCert = func([]byte) uastatus.Code {
		return uastatus.BadSecurityChecksFailed
	}
	done := make(chan error, 1)
	go func() {
		defer sConn.Close()
		tr, err := ServerHello(sConn, Limits{})
		if err != nil {
			done <- err
			return
		}
		_, err = Accept(tr, cfg)
		done <- err
	}()

	tr, err := ClientHello(cConn, "opc.tcp://t:4840", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(tr, ChannelSecurity{
		Policy:        uapolicy.Basic256Sha256,
		Mode:          uamsg.SecurityModeSignAndEncrypt,
		LocalKey:      cli.key,
		LocalCertDER:  cli.cert.Raw,
		RemoteCertDER: srv.cert.Raw,
	}, 60000)
	var ce uamsg.ConnError
	if !errors.As(err, &ce) || ce.Code != uastatus.BadSecurityChecksFailed {
		t.Errorf("client error = %v, want BadSecurityChecksFailed", err)
	}
	if err := <-done; err == nil {
		t.Error("server Accept should fail")
	}
}

func TestServerRejectsUnofferedPolicy(t *testing.T) {
	srv, cli, _ := identities(t)
	cConn, sConn := dialPair(t)
	done := make(chan error, 1)
	go func() {
		defer sConn.Close()
		tr, err := ServerHello(sConn, Limits{})
		if err != nil {
			done <- err
			return
		}
		_, err = Accept(tr, serverCfg(t, srv, uapolicy.None)) // only None offered
		done <- err
	}()

	tr, err := ClientHello(cConn, "opc.tcp://t:4840", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(tr, ChannelSecurity{
		Policy:        uapolicy.Basic256Sha256,
		Mode:          uamsg.SecurityModeSignAndEncrypt,
		LocalKey:      cli.key,
		LocalCertDER:  cli.cert.Raw,
		RemoteCertDER: srv.cert.Raw,
	}, 60000)
	var ce uamsg.ConnError
	if !errors.As(err, &ce) || ce.Code != uastatus.BadSecurityPolicyRejected {
		t.Errorf("client error = %v, want BadSecurityPolicyRejected", err)
	}
	if err := <-done; err == nil {
		t.Error("server Accept should fail")
	}
}

func TestOpenRequiresCertificatesForSecurePolicies(t *testing.T) {
	cConn, _ := dialPair(t)
	tr := &Transport{Conn: cConn, send: DefaultLimits(), recv: DefaultLimits()}
	if _, err := Open(tr, ChannelSecurity{Policy: uapolicy.Basic256Sha256}, 0); err == nil {
		t.Error("Open without certs should fail")
	}
	if _, err := Open(tr, ChannelSecurity{}, 0); err == nil {
		t.Error("Open with nil policy should fail")
	}
}

func TestHelloNegotiationRevisesLimits(t *testing.T) {
	cConn, sConn := dialPair(t)
	serverDone := make(chan *Transport, 1)
	errCh := make(chan error, 1)
	go func() {
		tr, err := ServerHello(sConn, Limits{
			ReceiveBufSize: 16384, SendBufSize: 16384,
			MaxMessageSize: 1 << 16, MaxChunkCount: 8,
		})
		errCh <- err
		serverDone <- tr
	}()
	tr, err := ClientHello(cConn, "opc.tcp://x", Limits{
		ReceiveBufSize: 65535, SendBufSize: 65535,
		MaxMessageSize: 1 << 24, MaxChunkCount: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	st := <-serverDone
	// Client may send at most what the server can receive.
	if tr.send.SendBufSize != 16384 {
		t.Errorf("client send buf = %d", tr.send.SendBufSize)
	}
	if tr.send.MaxChunkCount != 8 || tr.send.MaxMessageSize != 1<<16 {
		t.Errorf("client limits = %+v", tr.send)
	}
	if st.EndpointURL != "opc.tcp://x" {
		t.Errorf("server saw endpoint %q", st.EndpointURL)
	}
}

func TestServerHelloRejectsNonHello(t *testing.T) {
	cConn, sConn := dialPair(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHello(sConn, Limits{})
		errCh <- err
	}()
	if err := writeRaw(cConn, uamsg.MsgTypeMessage, uamsg.ChunkFinal, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Read the ERR frame first: net.Pipe writes are synchronous, so the
	// server's error return only happens after we consume its ERR.
	chunk, err := readRaw(cConn, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.msgType != uamsg.MsgTypeError {
		t.Errorf("got %q, want ERR", chunk.msgType)
	}
	if err := <-errCh; err == nil {
		t.Error("ServerHello should reject MSG frame")
	}
}

func TestReadRawEnforcesLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRaw(&buf, uamsg.MsgTypeMessage, uamsg.ChunkFinal, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := readRaw(&buf, 50, nil); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("err = %v, want ErrChunkTooLarge", err)
	}
}

// Regression: maxSize == 0 used to mean "unlimited", letting a hostile
// 4 GiB size claim drive the body allocation. The absolute frame-size
// ceiling must reject it before any allocation happens — in readRaw and
// in the transport's readChunk alike.
func TestReadRawRejectsOversizedClaimWithoutLimit(t *testing.T) {
	frame := make([]byte, chunkHeaderSize)
	copy(frame, uamsg.MsgTypeMessage)
	frame[3] = uamsg.ChunkFinal
	binary.LittleEndian.PutUint32(frame[4:], 0xfffffff0)

	if _, err := readRaw(bytes.NewReader(frame), 0, nil); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("readRaw(maxSize=0) err = %v, want ErrChunkTooLarge", err)
	}

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	go func() {
		sConn.Write(frame)
	}()
	tr := &Transport{Conn: cConn} // no negotiated limits at all
	if _, err := tr.readChunk(); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("readChunk (no limits) err = %v, want ErrChunkTooLarge", err)
	}
}

func BenchmarkSecureChannelRequest(b *testing.B) {
	srv, cli, _ := identities(b)
	cConn, sConn := net.Pipe()
	go func() {
		tr, err := ServerHello(sConn, Limits{})
		if err != nil {
			return
		}
		allowed := map[string][]uamsg.MessageSecurityMode{
			uapolicy.URIBasic256Sha256: {uamsg.SecurityModeSignAndEncrypt},
		}
		ch, err := Accept(tr, ServerConfig{
			Key: srv.key, CertDER: srv.cert.Raw,
			AllowedModes: func(p *uapolicy.Policy) []uamsg.MessageSecurityMode {
				return allowed[p.URI]
			},
		})
		if err != nil {
			return
		}
		for {
			got, err := ch.Recv()
			if err != nil {
				return
			}
			if req, ok := got.Message.(*uamsg.GetEndpointsRequest); ok {
				_ = ch.SendResponse(got.RequestID, &uamsg.GetEndpointsResponse{
					Header: uamsg.ResponseHeader{RequestHandle: req.Header.RequestHandle},
				})
			}
		}
	}()
	tr, err := ClientHello(cConn, "opc.tcp://bench", Limits{})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := Open(tr, ChannelSecurity{
		Policy:        uapolicy.Basic256Sha256,
		Mode:          uamsg.SecurityModeSignAndEncrypt,
		LocalKey:      cli.key,
		LocalCertDER:  cli.cert.Raw,
		RemoteCertDER: srv.cert.Raw,
	}, 3600000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Request(&uamsg.GetEndpointsRequest{}); err != nil {
			b.Fatal(err)
		}
	}
}
