package uasc

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/memconn"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
)

// tamperConn rewrites the first OPN frame written through it (sendOPN
// writes a frame in one Write); everything else passes untouched.
type tamperConn struct {
	net.Conn
	tamper func(frame []byte) []byte
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.tamper == nil || len(p) < chunkHeaderSize || string(p[:3]) != uamsg.MsgTypeOpen {
		return c.Conn.Write(p)
	}
	frame := c.tamper(append([]byte(nil), p...))
	c.tamper = nil
	if _, err := c.Conn.Write(frame); err != nil {
		return 0, err
	}
	return len(p), nil
}

// flipLastByte alters one byte of the frame's last ciphertext block.
func flipLastByte(frame []byte) []byte {
	frame[len(frame)-1] ^= 0x01
	return frame
}

// dropLastBlock returns a tamper that cuts the last ciphertext block off
// and patches the header's size, so the receiver sees a well-framed but
// shorter ciphertext.
func dropLastBlock(keySize int) func([]byte) []byte {
	return func(frame []byte) []byte {
		frame = frame[:len(frame)-keySize]
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(frame)))
		return frame
	}
}

// exchange is one deterministic Basic256Sha256 SignAndEncrypt handshake
// (Hello/Acknowledge and the OPN pair) over memconn, client and server
// sharing engine the way a campaign's scanner and simulated hosts do.
type exchange struct {
	engine        *uarsa.Engine
	serverKey     testIdentity              // nil key: the server's own
	tamperRequest func(frame []byte) []byte // applied to the client's OPN
	tamperReply   func(frame []byte) []byte // applied to the server's OPN
}

func (x exchange) run(tb testing.TB) (clientErr, serverErr error) {
	tb.Helper()
	srv, cli, _ := identities(tb)
	policy, mode := uapolicy.Basic256Sha256, uamsg.SecurityModeSignAndEncrypt
	cConn, sConn := memconn.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	deadline := time.Now().Add(10 * time.Second)
	_ = cConn.SetDeadline(deadline)
	_ = sConn.SetDeadline(deadline)

	allowed := []uamsg.MessageSecurityMode{mode}
	cfg := ServerConfig{
		Key:     srv.key,
		CertDER: srv.cert.Raw,
		AllowedModes: func(p *uapolicy.Policy) []uamsg.MessageSecurityMode {
			if p == policy {
				return allowed
			}
			return nil
		},
		Engine:        x.engine,
		Deterministic: true,
	}
	if x.serverKey.key != nil {
		cfg.Key = x.serverKey.key
	}
	done := make(chan error, 1)
	go func() {
		tr, err := ServerHello(&tamperConn{Conn: sConn, tamper: x.tamperReply}, Limits{})
		if err == nil {
			_, err = Accept(tr, cfg)
			tr.Release() // as a server does once it stops reading
		}
		done <- err
	}()

	tr, err := ClientHello(&tamperConn{Conn: cConn, tamper: x.tamperRequest}, "opc.tcp://seeded:4840", Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	_, clientErr = Open(tr, ChannelSecurity{
		Policy:        policy,
		Mode:          mode,
		LocalKey:      cli.key,
		LocalCertDER:  cli.cert.Raw,
		RemoteCertDER: srv.cert.Raw,
		Engine:        x.engine,
		Derive:        uarsa.NewDerivation([]byte("opn"), srv.cert.Raw, []byte(policy.URI), []byte{byte(mode)}),
	}, 60000)
	tr.Release() // as a client's Close does
	return clientErr, <-done
}

// outcome renders what a handshake error tells its caller: the message
// and, when the peer answered with an ERR chunk, its status code.
func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	var ce uamsg.ConnError
	if errors.As(err, &ce) {
		return err.Error() + " [" + ce.Code.String() + "]"
	}
	return err.Error()
}

// TestSeededDecryptNeverMasksFailure is the handshake-level soundness
// gate of decrypt seeding: on a clean exchange neither side's private
// key decrypts anything (the peer that encrypted stored the answer), and
// an OPN altered in flight, cut short, or sent to a server whose private
// key is not its certificate's misses the engine, really decrypts, and
// ends in the error and ERR code it ends in without an engine — also
// when the engine already holds the clean exchange.
func TestSeededDecryptNeverMasksFailure(t *testing.T) {
	srv, cli, _ := identities(t)
	for _, c := range []struct {
		name string
		x    exchange
	}{
		{"request byte flipped", exchange{tamperRequest: flipLastByte}},
		{"reply byte flipped", exchange{tamperReply: flipLastByte}},
		{"request truncated", exchange{tamperRequest: dropLastBlock(srv.key.Size())}},
		{"reply truncated", exchange{tamperReply: dropLastBlock(cli.key.Size())}},
		{"server key is not its certificate's", exchange{serverKey: cli}},
	} {
		t.Run(c.name, func(t *testing.T) {
			wantClient, wantServer := c.x.run(t)
			if wantClient == nil {
				t.Fatal("the altered handshake succeeded without an engine: the case alters nothing")
			}

			engine := uarsa.NewEngine(0)
			if cErr, sErr := (exchange{engine: engine}).run(t); cErr != nil || sErr != nil {
				t.Fatalf("clean handshake: client %v, server %v", cErr, sErr)
			}
			clean := engine.Stats()
			if clean.Decrypt.Misses != 0 || clean.Decrypt.Hits != 2 || clean.Encrypt.Misses != 2 {
				t.Errorf("clean handshake: %+v, want both decrypts served by the two encrypt misses", clean)
			}

			altered := c.x
			altered.engine = engine
			gotClient, gotServer := altered.run(t)
			if outcome(gotClient) != outcome(wantClient) {
				t.Errorf("client: %q with the engine, %q without", outcome(gotClient), outcome(wantClient))
			}
			if outcome(gotServer) != outcome(wantServer) {
				t.Errorf("server: %q with the engine, %q without", outcome(gotServer), outcome(wantServer))
			}
			if st := engine.Stats(); st.Decrypt.Misses < 1 {
				t.Errorf("altered handshake was answered from the engine: %+v", st)
			}
		})
	}
}

// firstHandshake is one exchange end to end, client and server, against
// a cold engine created for it: the private keys sign and do nothing
// else.
func firstHandshake(tb testing.TB) {
	engine := uarsa.NewEngine(0)
	if cErr, sErr := (exchange{engine: engine}).run(tb); cErr != nil || sErr != nil {
		tb.Fatalf("handshake: client %v, server %v", cErr, sErr)
	}
	if st := engine.Stats(); st.Decrypt.Misses != 0 || st.Sign.Misses != 2 {
		tb.Fatalf("first exchange: %+v, want 2 signs and no private-key decrypt", st)
	}
}

// replayHandshake returns an exchange against an engine a first exchange
// filled; each call must compute no RSA operation at all.
func replayHandshake(tb testing.TB) func() {
	engine := uarsa.NewEngine(0)
	run := func() {
		if cErr, sErr := (exchange{engine: engine}).run(tb); cErr != nil || sErr != nil {
			tb.Fatalf("handshake: client %v, server %v", cErr, sErr)
		}
	}
	misses := func(s uarsa.Stats) uint64 {
		return s.Sign.Misses + s.Verify.Misses + s.Decrypt.Misses + s.Encrypt.Misses
	}
	run()
	warm := engine.Stats()
	return func() {
		run()
		if st := engine.Stats(); misses(st) != misses(warm) {
			tb.Fatalf("replayed exchange computed RSA operations: %+v after %+v", st, warm)
		}
	}
}

// BenchmarkHandshake is one exchange end to end, client and server:
// "first" is firstHandshake, "replay" replayHandshake.
// TestHandshakeAllocBudget budgets the allocations of both.
func BenchmarkHandshake(b *testing.B) {
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			firstHandshake(b)
		}
	})
	b.Run("replay", func(b *testing.B) {
		replay := replayHandshake(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay()
		}
	})
}
