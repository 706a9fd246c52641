package memconn

import (
	"bytes"
	"errors"
	"io"
	mrand "math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// impl is one net.Conn pair constructor under the shared contract. The
// conn buffers where net.Pipe hands off, so a case that needs a blocked
// Write first saturates the direction: highWater bytes here, nothing on
// net.Pipe, whose every Write blocks until read.
type impl struct {
	name     string
	pipe     func() (net.Conn, net.Conn)
	saturate func(t *testing.T, c net.Conn)
}

var impls = []impl{
	{"memconn", Pipe, func(t *testing.T, c net.Conn) {
		t.Helper()
		if n, err := c.Write(make([]byte, highWater)); n != highWater || err != nil {
			t.Fatalf("filling to the high-water mark: %d, %v", n, err)
		}
	}},
	{"net.Pipe", net.Pipe, func(*testing.T, net.Conn) {}},
}

const (
	short = 20 * time.Millisecond
	long  = 10 * time.Second // never reached: a case that waits this long has failed
)

// wantTimeout checks the exact value a deadline failure must have: the
// error string is a dataset byte and the scanner classifies by identity.
func wantTimeout(t *testing.T, op string, err error) {
	t.Helper()
	var oe *net.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("%s: got %T %v, want *net.OpError", op, err, err)
	}
	if oe.Op != op || oe.Net != "pipe" || oe.Err != os.ErrDeadlineExceeded || oe.Source != nil || oe.Addr != nil {
		t.Errorf("%s: got %#v", op, oe)
	}
	if got, want := err.Error(), op+" pipe: i/o timeout"; got != want {
		t.Errorf("%s: Error() = %q, want %q", op, got, want)
	}
	if !oe.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s: Timeout() = %v, Is(ErrDeadlineExceeded) = %v", op, oe.Timeout(), errors.Is(err, os.ErrDeadlineExceeded))
	}
}

// wantBare checks an error the contract returns unwrapped.
func wantBare(t *testing.T, what string, err, want error) {
	t.Helper()
	if err != want {
		t.Errorf("%s: got %T %v, want bare %v", what, err, err, want)
	}
}

// blocked starts call on its own goroutine and, after a pause long
// enough for it to block, runs release; it returns what call returned.
func blocked(t *testing.T, call func() (int, error), release func()) (int, error) {
	t.Helper()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := call()
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("call returned (%d, %v) before it was released", r.n, r.err)
	case <-time.After(short):
	}
	release()
	select {
	case r := <-done:
		return r.n, r.err
	case <-time.After(long):
		t.Fatal("call still blocked after its release")
		return 0, nil
	}
}

// now reads c's clock: its timeline for the conn, the wall for net.Pipe.
func now(c net.Conn) time.Time { return ClockOf(c).Now() }

// park starts call, a Read or Write of the peer that blocks, on its own
// goroutine: with the peer parked, a call of the other end that blocks
// makes the pair quiescent, and its deadline can fire. The channel
// yields call's error.
func park(call func() (int, error)) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := call()
		done <- err
	}()
	return done
}

// returned waits for a parked call's error.
func returned(t *testing.T, parked <-chan error) error {
	t.Helper()
	select {
	case err := <-parked:
		return err
	case <-time.After(long):
		t.Fatal("parked call never returned")
		return nil
	}
}

// TestConnContract runs every case where the conn and net.Pipe must
// agree against both. A deadline fires on the conn only once the peer
// is blocked too, so the rows that wait for one park the peer first.
func TestConnContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, im impl, a, b net.Conn, one []byte)
	}{
		{"deadline already past", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			past := now(a).Add(-time.Second)
			if err := a.SetDeadline(past); err != nil {
				t.Fatal(err)
			}
			_, err := a.Read(one)
			wantTimeout(t, "read", err)
			_, err = a.Write(one)
			wantTimeout(t, "write", err)
			// Zero-length calls fail the same way.
			_, err = a.Read(nil)
			wantTimeout(t, "read", err)
			_, err = a.Write(nil)
			wantTimeout(t, "write", err)
			// Each direction has its own deadline.
			if err := a.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			go func() { _, _ = b.Write(one) }()
			if n, err := a.Read(one); n != 1 || err != nil {
				t.Errorf("read with the read deadline cleared: %d, %v", n, err)
			}
			_, err = a.Write(one)
			wantTimeout(t, "write", err)
		}},
		{"deadline expires while blocked", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			parked := park(func() (int, error) { return b.Read(one) })
			start := now(a)
			_ = a.SetReadDeadline(start.Add(short))
			_, err := a.Read(one)
			wantTimeout(t, "read", err)
			if d := now(a).Sub(start); d < short {
				t.Errorf("read timed out after %v, before its %v deadline", d, short)
			}
			// Release the parked read; park the peer in a write instead,
			// which takes none of the bytes a is about to block on.
			if _, err := a.Write(one); err != nil {
				t.Fatal(err)
			}
			if err := returned(t, parked); err != nil {
				t.Fatalf("parked read: %v", err)
			}
			im.saturate(t, a)
			im.saturate(t, b)
			park(func() (int, error) { return b.Write(one) })
			start = now(a)
			_ = a.SetWriteDeadline(start.Add(short))
			n, err := a.Write(one)
			wantTimeout(t, "write", err)
			if n != 0 {
				t.Errorf("timed-out write reports %d bytes", n)
			}
			if d := now(a).Sub(start); d < short {
				t.Errorf("write timed out after %v, before its %v deadline", d, short)
			}
		}},
		{"deadline set while blocked", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_, err := blocked(t, func() (int, error) { return a.Read(one) },
				func() { _ = a.SetReadDeadline(now(a).Add(-time.Second)) })
			wantTimeout(t, "read", err)
			im.saturate(t, a)
			_, err = blocked(t, func() (int, error) { return a.Write(one) },
				func() { _ = a.SetDeadline(now(a)) })
			wantTimeout(t, "write", err)
		}},
		{"deadline shortened while blocked", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_ = a.SetReadDeadline(now(a).Add(long))
			_, err := blocked(t, func() (int, error) { return a.Read(one) }, func() {
				_ = a.SetReadDeadline(now(a).Add(short))
				park(func() (int, error) { return b.Read(one) })
			})
			wantTimeout(t, "read", err)
		}},
		{"deadline cleared while blocked", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_ = a.SetReadDeadline(now(a).Add(3 * short))
			n, err := blocked(t, func() (int, error) { return a.Read(one) }, func() {
				_ = a.SetReadDeadline(time.Time{})
				// The peer waits out a deadline of its own, past the one
				// that was cleared.
				_ = b.SetReadDeadline(now(b).Add(4 * short))
				wantTimeout(t, "read", returned(t, park(func() (int, error) { return b.Read(one) })))
				_, _ = b.Write(one)
			})
			if n != 1 || err != nil {
				t.Errorf("read after its deadline was cleared: %d, %v", n, err)
			}
		}},
		{"deadline extended while blocked", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_ = a.SetReadDeadline(now(a).Add(3 * short))
			n, err := blocked(t, func() (int, error) { return a.Read(one) }, func() {
				_ = a.SetReadDeadline(now(a).Add(long))
				_ = b.SetReadDeadline(now(b).Add(4 * short))
				wantTimeout(t, "read", returned(t, park(func() (int, error) { return b.Read(one) })))
				_, _ = b.Write(one)
			})
			if n != 1 || err != nil {
				t.Errorf("read after its deadline was extended: %d, %v", n, err)
			}
		}},
		{"after local close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			if err := a.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			_, err := a.Read(one)
			wantBare(t, "read", err, io.ErrClosedPipe)
			_, err = a.Write(one)
			wantBare(t, "write", err, io.ErrClosedPipe)
			_, err = a.Read(nil)
			wantBare(t, "zero-length read", err, io.ErrClosedPipe)
			_, err = a.Write(nil)
			wantBare(t, "zero-length write", err, io.ErrClosedPipe)
			wantBare(t, "SetDeadline", a.SetDeadline(now(a).Add(long)), io.ErrClosedPipe)
			wantBare(t, "SetReadDeadline", a.SetReadDeadline(time.Time{}), io.ErrClosedPipe)
			wantBare(t, "SetWriteDeadline", a.SetWriteDeadline(time.Time{}), io.ErrClosedPipe)
		}},
		{"after remote close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_ = b.Close()
			_, err := a.Read(one)
			wantBare(t, "read", err, io.EOF)
			_, err = a.Write(one)
			wantBare(t, "write", err, io.ErrClosedPipe)
			_, err = a.Read(nil)
			wantBare(t, "zero-length read", err, io.EOF)
			_, err = a.Write(nil)
			wantBare(t, "zero-length write", err, io.ErrClosedPipe)
			wantBare(t, "SetDeadline", a.SetDeadline(now(a).Add(long)), io.ErrClosedPipe)
		}},
		{"remote close outranks a past deadline", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_ = a.SetDeadline(now(a).Add(-time.Second))
			_ = b.Close()
			_, err := a.Read(one)
			wantBare(t, "read", err, io.EOF)
			_, err = a.Write(one)
			wantBare(t, "write", err, io.ErrClosedPipe)
		}},
		{"blocked read released by remote close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_, err := blocked(t, func() (int, error) { return a.Read(one) }, func() { _ = b.Close() })
			wantBare(t, "read released by remote close", err, io.EOF)
		}},
		{"blocked read released by local close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			_, err := blocked(t, func() (int, error) { return a.Read(one) }, func() { _ = a.Close() })
			wantBare(t, "read", err, io.ErrClosedPipe)
		}},
		{"blocked write released by local close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			im.saturate(t, a)
			n, err := blocked(t, func() (int, error) { return a.Write(one) }, func() { _ = a.Close() })
			wantBare(t, "write", err, io.ErrClosedPipe)
			if n != 0 {
				t.Errorf("write reports %d bytes", n)
			}
		}},
		{"blocked write released by remote close", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			im.saturate(t, a)
			_, err := blocked(t, func() (int, error) { return a.Write(one) }, func() { _ = b.Close() })
			wantBare(t, "write", err, io.ErrClosedPipe)
		}},
		{"close wakes every blocked call", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			// A Read and a Write blocked on one end, each under a pending
			// deadline, are both released by either end's Close.
			for _, local := range []bool{true, false} {
				a, b := im.pipe()
				_ = a.SetDeadline(now(a).Add(long))
				im.saturate(t, a)
				reading := park(func() (int, error) { return a.Read(one) })
				writing := park(func() (int, error) { return a.Write(make([]byte, 1)) })
				time.Sleep(short)
				if local {
					_ = a.Close()
				} else {
					_ = b.Close()
				}
				wantRead := io.EOF
				if local {
					wantRead = io.ErrClosedPipe
				}
				wantBare(t, "blocked read", returned(t, reading), wantRead)
				wantBare(t, "blocked write", returned(t, writing), io.ErrClosedPipe)
				_ = a.Close()
				_ = b.Close()
			}
		}},
		{"addresses", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			for _, ad := range []net.Addr{a.LocalAddr(), a.RemoteAddr()} {
				if ad.Network() != "pipe" || ad.String() != "pipe" {
					t.Errorf("address %q/%q, want pipe/pipe", ad.Network(), ad.String())
				}
			}
		}},
		{"stream integrity", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			// Writes of every size class up to several high-water marks,
			// read back in unrelated sizes: the byte stream is all either
			// side may rely on.
			rng := mrand.New(mrand.NewSource(14))
			sent := make([]byte, 1<<20)
			rng.Read(sent)
			go func() {
				rest := sent
				for len(rest) > 0 {
					n := min(len(rest), 1+rng.Intn(3*highWater))
					if _, err := a.Write(rest[:n]); err != nil {
						t.Errorf("write: %v", err)
						break
					}
					rest = rest[n:]
				}
				_ = a.Close()
			}()
			got, err := io.ReadAll(io.LimitReader(b, int64(len(sent))))
			if err != nil || !bytes.Equal(got, sent) {
				t.Errorf("read %d bytes, %v; equal = %v", len(got), err, bytes.Equal(got, sent))
			}
		}},
		{"concurrent use", func(t *testing.T, im impl, a, b net.Conn, one []byte) {
			// Readers, writers, deadline setters and a Close on both ends
			// at once: the race detector's case. Every call must return.
			var wg sync.WaitGroup
			for _, c := range []net.Conn{a, b} {
				for i := 0; i < 2; i++ {
					wg.Add(3)
					go func() {
						defer wg.Done()
						buf := make([]byte, 512)
						for {
							if _, err := c.Read(buf); err != nil {
								return
							}
						}
					}()
					go func() {
						defer wg.Done()
						buf := make([]byte, 300)
						for {
							if _, err := c.Write(buf); err != nil {
								return
							}
						}
					}()
					go func() {
						defer wg.Done()
						for c.SetDeadline(now(c).Add(long)) == nil {
							_ = c.SetReadDeadline(time.Time{})
						}
					}()
				}
			}
			time.Sleep(2 * short)
			_ = a.Close()
			_ = b.Close()
			wg.Wait()
		}},
	}
	for _, im := range impls {
		for _, tc := range cases {
			t.Run(im.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				a, b := im.pipe()
				defer a.Close()
				defer b.Close()
				tc.run(t, im, a, b, make([]byte, 1))
			})
		}
	}
}

// TestBufferedBytesSurvivePeerClose: what was written before a Close is
// delivered, then io.EOF — net.Pipe has no such state, a socket does.
func TestBufferedBytesSurvivePeerClose(t *testing.T) {
	a, b := Pipe()
	msg := []byte("written, then closed")
	if n, err := a.Write(msg); n != len(msg) || err != nil {
		t.Fatalf("write with no reader: %d, %v", n, err)
	}
	_ = a.Close()
	got, err := io.ReadAll(b)
	if err != nil || !bytes.Equal(got, msg) {
		t.Errorf("read %q, %v; want %q then EOF", got, err, msg)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after drain: %v, want io.EOF", err)
	}
	// The closing end dropped what it had not read.
	c, d := Pipe()
	_, _ = d.Write(msg)
	_ = c.Close()
	if _, err := c.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Errorf("read on the closed end: %v, want io.ErrClosedPipe", err)
	}
}

// TestZeroLengthCallsDoNotBlock: on an open connection they return at
// once (net.Pipe waits for a peer).
func TestZeroLengthCallsDoNotBlock(t *testing.T) {
	a, _ := Pipe()
	if n, err := a.Read(nil); n != 0 || err != nil {
		t.Errorf("zero-length read: %d, %v", n, err)
	}
	if n, err := a.Write(nil); n != 0 || err != nil {
		t.Errorf("zero-length write: %d, %v", n, err)
	}
}

// TestHighWaterMark: a direction accepts highWater unread bytes and no
// more; the Write holding the rest is released by a Read, by its
// deadline (reporting what it did write), and by either Close.
func TestHighWaterMark(t *testing.T) {
	big := make([]byte, highWater+100)
	for i := range big {
		big[i] = byte(i)
	}

	t.Run("released by a read", func(t *testing.T) {
		a, b := Pipe()
		got := make([]byte, 0, len(big))
		n, err := blocked(t, func() (int, error) { return a.Write(big) }, func() {
			buf := make([]byte, len(big))
			for len(got) < len(big) {
				k, err := b.Read(buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = append(got, buf[:k]...)
			}
		})
		if n != len(big) || err != nil {
			t.Errorf("write: %d, %v", n, err)
		}
		if !bytes.Equal(got, big) {
			t.Error("bytes read differ from bytes written")
		}
	})
	t.Run("released by its deadline", func(t *testing.T) {
		// The peer is parked in a write of its own, so it takes none of
		// a's bytes and the pair is quiescent once a blocks.
		a, b := Pipe()
		if _, err := b.Write(make([]byte, highWater)); err != nil {
			t.Fatal(err)
		}
		park(func() (int, error) { return b.Write(big[:1]) })
		_ = a.SetWriteDeadline(now(a).Add(short))
		n, err := a.Write(big)
		wantTimeout(t, "write", err)
		if n != highWater {
			t.Errorf("timed-out write reports %d bytes, want the %d that fit", n, highWater)
		}
	})
	t.Run("released by local close", func(t *testing.T) {
		a, _ := Pipe()
		n, err := blocked(t, func() (int, error) { return a.Write(big) }, func() { _ = a.Close() })
		if n != highWater || err != io.ErrClosedPipe {
			t.Errorf("write: %d, %v; want %d, io.ErrClosedPipe", n, err, highWater)
		}
	})
	t.Run("released by remote close", func(t *testing.T) {
		a, b := Pipe()
		n, err := blocked(t, func() (int, error) { return a.Write(big) }, func() { _ = b.Close() })
		if n != highWater || err != io.ErrClosedPipe {
			t.Errorf("write: %d, %v; want %d, io.ErrClosedPipe", n, err, highWater)
		}
	})
	t.Run("buffer stays bounded", func(t *testing.T) {
		// A reader that keeps a little behind: the buffer is compacted,
		// not grown, however much passes through.
		a, b := Pipe()
		chunk := make([]byte, 1000)
		for i := 0; i < 2000; i++ {
			if _, err := a.Write(chunk); err != nil {
				t.Fatal(err)
			}
			if i >= 10 {
				if _, err := io.ReadFull(b, chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := a.(*conn).w
		s.g.mu.Lock()
		defer s.g.mu.Unlock()
		if cap(s.buf) > 2*highWater {
			t.Errorf("buffer capacity %d after 2 MB passed through, want ≤ %d", cap(s.buf), 2*highWater)
		}
	})
}

// TestDeadlinesAllocateNothing: Set*Deadline only stores a time, and a
// request/response exchange re-arming its deadline every time settles at
// no allocation at all.
func TestDeadlinesAllocateNothing(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if n := testing.AllocsPerRun(1000, func() {
		_ = a.SetDeadline(now(a).Add(long))
		_ = a.SetReadDeadline(now(a).Add(long))
		_ = a.SetWriteDeadline(time.Time{})
	}); n != 0 {
		t.Errorf("Set*Deadline allocates %.1f objects per call, want 0", n)
	}
	stop := echo(b)
	defer stop()
	msg := make([]byte, 64)
	roundTrip(t, a, msg) // the echo's buffers grow once
	if n := testing.AllocsPerRun(1000, func() { roundTrip(t, a, msg) }); n != 0 {
		t.Errorf("a round trip with its deadline re-armed allocates %.1f objects, want 0", n)
	}
}

// echo answers every message read on c with the same bytes until c
// fails; stop closes c and waits for the goroutine.
func echo(c net.Conn) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16<<10)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return func() {
		_ = c.Close()
		<-done
	}
}

// roundTrip sends msg and reads its echo under a fresh deadline, the way
// the client arms one per request.
func roundTrip(tb testing.TB, c net.Conn, msg []byte) {
	_ = c.SetDeadline(now(c).Add(long))
	if _, err := c.Write(msg); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(c, msg); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkConnRoundTrip is the connection's share of one request: a
// message out, the same bytes back, the deadline re-armed before each.
// allocs/op is budgeted in BENCH_14.json (steady state: none).
func BenchmarkConnRoundTrip(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"8KiB", 8 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			client, server := Pipe()
			stop := echo(server)
			defer stop()
			defer client.Close()
			msg := make([]byte, size.n)
			roundTrip(b, client, msg)
			b.SetBytes(int64(2 * size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip(b, client, msg)
			}
		})
	}
}
