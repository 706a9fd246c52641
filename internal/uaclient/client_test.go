package uaclient

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/uamsg"
)

// The full client behaviour (sessions, browse, read, call, walking,
// security) is exercised against the real server in
// internal/uaserver's integration tests; this file covers the
// client-local pieces.

func TestIdentityConstructors(t *testing.T) {
	anon := AnonymousIdentity()
	tok, ok := anon.Token.(*uamsg.AnonymousIdentityToken)
	if !ok || tok.PolicyID != "0" {
		t.Errorf("anonymous identity = %#v", anon.Token)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Dialer == nil || o.Timeout <= 0 || o.ApplicationURI == "" {
		t.Errorf("defaults missing: %+v", o)
	}
	custom := Options{Timeout: time.Second, ApplicationURI: "urn:x"}.withDefaults()
	if custom.Timeout != time.Second || custom.ApplicationURI != "urn:x" {
		t.Errorf("custom options overridden: %+v", custom)
	}
}

func TestServiceErrorMessage(t *testing.T) {
	e := ServiceError{Code: 0x80340000} // BadNodeIdUnknown
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

type refusingDialer struct{}

func (refusingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return nil, &net.OpError{Op: "dial", Err: context.DeadlineExceeded}
}

func TestDialFailures(t *testing.T) {
	// Bad URL scheme.
	if _, err := Dial(context.Background(), "http://x", Options{}); err == nil {
		t.Error("bad scheme accepted")
	}
	// Dialer failure propagates.
	if _, err := Dial(context.Background(), "opc.tcp://192.0.2.1:4840",
		Options{Dialer: refusingDialer{}}); err == nil {
		t.Error("dialer failure swallowed")
	}
}

func TestDialHandshakeFailureClosesConn(t *testing.T) {
	// A peer that speaks garbage instead of ACK must produce an error.
	client, server := net.Pipe()
	d := pipeDialer{conn: client}
	go func() {
		buf := make([]byte, 256)
		_, _ = server.Read(buf)
		_, _ = server.Write([]byte("HTTP/1.0 400 Bad Request\r\n\r\n"))
		server.Close()
	}()
	_, err := Dial(context.Background(), "opc.tcp://198.51.100.1:4840", Options{
		Dialer:  d,
		Timeout: 2 * time.Second,
	})
	if err == nil {
		t.Error("garbage handshake accepted")
	}
}

type pipeDialer struct{ conn net.Conn }

func (p pipeDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return p.conn, nil
}

func TestDefaultWalkOptionsMatchPaper(t *testing.T) {
	o := DefaultWalkOptions()
	if o.Delay != 500*time.Millisecond {
		t.Errorf("delay = %v, want the paper's 500ms", o.Delay)
	}
	if o.MaxDuration != 60*time.Minute {
		t.Errorf("max duration = %v, want 60min", o.MaxDuration)
	}
	if o.MaxBytes != 50<<20 {
		t.Errorf("max bytes = %d, want 50MB", o.MaxBytes)
	}
}

// --- stage deadlines and the hard watchdog (DESIGN.md §9) ---

func TestStageBudgetFallsBackToTimeout(t *testing.T) {
	c := &Client{opts: Options{Timeout: 30 * time.Second}}
	if got := c.budget(0); got != 30*time.Second {
		t.Errorf("budget(0) = %v, want the 30s connection budget", got)
	}
	if got := c.budget(2 * time.Second); got != 2*time.Second {
		t.Errorf("budget(2s) = %v, want the stage's own 2s", got)
	}
}

func TestClampCapsAtHardDeadline(t *testing.T) {
	hard := time.Now().Add(time.Second)
	c := &Client{opts: Options{HardDeadline: hard}}
	if got := c.clamp(hard.Add(time.Hour)); !got.Equal(hard) {
		t.Errorf("clamp past the watchdog = %v, want %v", got, hard)
	}
	before := hard.Add(-time.Minute)
	if got := c.clamp(before); !got.Equal(before) {
		t.Errorf("clamp before the watchdog = %v, want %v", got, before)
	}
	unclamped := &Client{opts: Options{}}
	far := time.Now().Add(time.Hour)
	if got := unclamped.clamp(far); !got.Equal(far) {
		t.Errorf("zero HardDeadline clamped %v to %v", far, got)
	}
}

// TestHelloTimeoutBoundsTarpit: a peer that reads the hello and then
// stalls silently must cost HelloTimeout, not the whole 30s connection
// budget — the tarpit-host armor.
func TestHelloTimeoutBoundsTarpit(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	_, err := Dial(context.Background(), "opc.tcp://198.51.100.1:4840", Options{
		Dialer:       pipeDialer{conn: client},
		Timeout:      30 * time.Second,
		HelloTimeout: 100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("tarpit handshake succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("tarpit error = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("tarpit dial took %v — HelloTimeout did not bound the stall", elapsed)
	}
}

// TestHardDeadlineOverridesStages: an already-expired watchdog fails
// the handshake immediately, whatever the stage budgets say.
func TestHardDeadlineOverridesStages(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	_, err := Dial(context.Background(), "opc.tcp://198.51.100.1:4840", Options{
		Dialer:       pipeDialer{conn: client},
		Timeout:      30 * time.Second,
		HelloTimeout: 30 * time.Second,
		HardDeadline: time.Now().Add(-time.Second),
	})
	if err == nil {
		t.Fatal("expired watchdog still allowed the handshake")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("expired-watchdog dial took %v, want immediate failure", elapsed)
	}
}

// blockingDialer blocks until its context is cancelled.
type blockingDialer struct{}

func (blockingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestConnectTimeoutBoundsDial: ConnectTimeout cancels a wedged dial.
func TestConnectTimeoutBoundsDial(t *testing.T) {
	start := time.Now()
	_, err := Dial(context.Background(), "opc.tcp://198.51.100.1:4840", Options{
		Dialer:         blockingDialer{},
		Timeout:        30 * time.Second,
		ConnectTimeout: 100 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wedged dial error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("wedged dial took %v — ConnectTimeout did not bound it", elapsed)
	}
}
