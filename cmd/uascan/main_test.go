package main

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/uacert"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uaserver"
)

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serve accepts connections on l and hands each one to handle until
// the test ends.
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

// scan runs uascan on args and decodes its JSON results.
func scan(t *testing.T, args ...string) []scanner.Result {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("uascan %v: %v", args, err)
	}
	var results []scanner.Result
	dec := json.NewDecoder(&out)
	for {
		var r scanner.Result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return results
		} else if err != nil {
			t.Fatalf("decoding uascan output: %v", err)
		}
		results = append(results, r)
	}
}

// TestGrabsRealServer grabs a uaserver over real TCP and checks the
// four things the paper reads off a grab: that OPC UA answered, the
// advertised endpoints, the server certificate and anonymous access;
// and that the grab's time is the wall's.
func TestGrabsRealServer(t *testing.T) {
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := uacert.Generate(key, uacert.Options{CommonName: "smoke", ApplicationURI: "urn:test:smoke"})
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	srv, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:test:smoke",
		EndpointURL:    "opc.tcp://" + l.Addr().String(),
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
			{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt}},
		},
		TokenTypes: []uamsg.UserTokenType{uamsg.UserTokenAnonymous},
		Key:        key,
		CertDER:    cert.Raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, l, srv.HandleConn)

	before := time.Now()
	results := scan(t, "-timeout", "5s", "-delay", "0", addr)
	after := time.Now()
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if !r.ReachedOPCUA {
		t.Fatalf("ReachedOPCUA = false (error %q)", r.Error)
	}
	var got []string
	for _, ep := range r.Endpoints {
		got = append(got, ep.SecurityPolicyURI+" "+ep.SecurityMode.String())
	}
	slices.Sort(got)
	want := []string{
		uapolicy.Basic256Sha256.URI + " " + uamsg.SecurityModeSign.String(),
		uapolicy.Basic256Sha256.URI + " " + uamsg.SecurityModeSignAndEncrypt.String(),
		uapolicy.None.URI + " " + uamsg.SecurityModeNone.String(),
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("endpoints = %q, want %q", got, want)
	}
	if !bytes.Equal(r.ServerCertDER, cert.Raw) {
		t.Error("server certificate differs from the one the server holds")
	}
	if s := r.Session; !s.Offered || !s.Attempted || !s.OK {
		t.Errorf("anonymous session = %+v, want offered, attempted and OK", s)
	}
	// A real network's grab runs on the wall clock.
	if r.Time.Before(before) || r.Time.After(after) || r.Duration <= 0 {
		t.Errorf("grab at %v for %v, want a wall time in [%v, %v] and a positive duration",
			r.Time, r.Duration, before, after)
	}
}

// TestGrabsNonOPCUAListener points uascan at a listener that answers
// the Hello with text: the grab completes, and reports no OPC UA.
func TestGrabsNonOPCUAListener(t *testing.T) {
	addr := serve(t, listen(t), func(c net.Conn) {
		defer c.Close()
		_, _ = c.Write([]byte("HTTP/1.0 400 Bad Request\r\n\r\n"))
	})
	results := scan(t, "-timeout", "5s", addr)
	if len(results) != 1 || results[0].ReachedOPCUA {
		t.Fatalf("results = %+v, want one that did not reach OPC UA", results)
	}
}
