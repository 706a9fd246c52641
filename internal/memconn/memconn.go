// Package memconn is the simulated Internet's connection: an in-process,
// full-duplex net.Conn pair with a byte buffer per direction. It takes
// net.Pipe's place under simnet, worldview and chaos, and costs what a
// simulated connection does rather than what a rendezvous adds.
//
// Contract (DESIGN.md §2, "The simulated connection"):
//
//   - Buffering. Write copies into the direction's buffer and returns;
//     Read returns whatever is buffered. A message is one wake-up of the
//     peer, not a hand-off per Read of a chunk's header and body.
//   - High-water mark. A direction holds at most highWater unread bytes;
//     a Write that would exceed it blocks for the rest, so a stalled peer
//     bounds memory the way a socket buffer does.
//   - Close. Bytes written before a Close are still delivered to the
//     peer, which then reads io.EOF; the closing end's own calls, and the
//     peer's writes, fail with io.ErrClosedPipe. Close wakes every
//     blocked call and stops every timer: nothing outlives it.
//   - Deadlines. Set*Deadline stores a time and allocates nothing. Only a
//     call that actually blocks arms a timer (one per end and direction,
//     created on first use, re-armed when the deadline has changed); a
//     deadline set, moved or cleared while a call is blocked takes effect
//     on that call.
//   - Errors are net.Pipe's, value for value, because the scanner writes
//     error strings into dataset records and classifies failures by
//     identity: a timeout is &net.OpError{Op: "read"|"write", Net: "pipe",
//     Err: os.ErrDeadlineExceeded} ("read pipe: i/o timeout"), io.EOF and
//     io.ErrClosedPipe are returned bare.
//
// The package imports the standard library only.
package memconn

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// highWater is the most unread bytes one direction buffers: one chunk at
// the UACP buffer size every simulated peer negotiates.
const highWater = 64 << 10

// Pipe returns the two ends of a new connection. What one end writes the
// other reads.
func Pipe() (net.Conn, net.Conn) {
	p := new(pipe)
	p.ab.wake.L = &p.ab.mu
	p.ba.wake.L = &p.ba.mu
	p.a = conn{r: &p.ba, w: &p.ab}
	p.b = conn{r: &p.ab, w: &p.ba}
	return &p.a, &p.b
}

// pipe holds both directions and both ends in one allocation.
type pipe struct {
	ab, ba stream
	a, b   conn
}

// stream is one direction: bytes queued by the writing end until the
// reading end takes them.
type stream struct {
	mu   sync.Mutex
	wake sync.Cond // every state change: bytes in, bytes out, close, deadline

	buf []byte // unread bytes are buf[off:]
	off int

	rclosed bool // the reading end closed: nothing more is accepted
	wclosed bool // the writing end closed: EOF once drained

	rd, wd deadline // the reading end's read, the writing end's write deadline

	wmu sync.Mutex // one Write at a time, so its bytes stay together
}

// deadline is one end's limit on one direction.
type deadline struct {
	at    time.Time   // zero: none
	timer *time.Timer // wakes the stream at armed; nil until a call first blocks
	armed time.Time   // what timer was last set to fire at
}

// passed reports whether the deadline has expired.
func (d *deadline) passed() bool {
	//studyvet:entropy-exempt — an I/O deadline against the wall clock; no record depends on the reading
	return !d.at.IsZero() && time.Until(d.at) <= 0
}

// arm makes sure s is woken when the deadline expires; its caller is
// about to block and has just seen the deadline not passed. A timer
// still pending for an earlier deadline is left to fire: a spurious
// wake-up costs less than a Stop on every request.
func (d *deadline) arm(s *stream) {
	if d.at.IsZero() || d.armed.Equal(d.at) {
		return
	}
	//studyvet:entropy-exempt — see passed
	wait := time.Until(d.at)
	if d.timer == nil {
		d.timer = time.AfterFunc(wait, s.expire)
	} else {
		d.timer.Reset(wait)
	}
	d.armed = d.at
}

// expire is the timer's callback. Taking the lock first orders it after
// the Wait of the call that armed the timer, which registers with wake
// before it lets go of mu; a bare Broadcast could run in between and be
// lost.
func (s *stream) expire() {
	s.mu.Lock()
	s.mu.Unlock()
	s.wake.Broadcast()
}

func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
}

// set stores a deadline of s and lets blocked calls see it.
func (s *stream) set(d *deadline, t time.Time) error {
	s.mu.Lock()
	closed := s.rclosed || s.wclosed
	if !closed {
		d.at = t
	}
	s.mu.Unlock()
	if closed {
		return io.ErrClosedPipe
	}
	s.wake.Broadcast()
	return nil
}

func (s *stream) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.rclosed:
			return 0, io.ErrClosedPipe
		case s.wclosed && s.off == len(s.buf):
			return 0, io.EOF
		case s.rd.passed():
			return 0, os.ErrDeadlineExceeded
		}
		if s.off < len(s.buf) || len(p) == 0 {
			n := copy(p, s.buf[s.off:])
			s.off += n
			if s.off == len(s.buf) {
				s.buf, s.off = s.buf[:0], 0
			}
			s.wake.Broadcast() // a writer held at the high-water mark
			return n, nil
		}
		s.rd.arm(s)
		s.wake.Wait()
	}
}

func (s *stream) write(p []byte) (n int, err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.wclosed || s.rclosed:
			return n, io.ErrClosedPipe
		case s.wd.passed():
			return n, os.ErrDeadlineExceeded
		}
		if room := highWater - (len(s.buf) - s.off); room > 0 || len(p) == 0 {
			k := min(room, len(p))
			if s.off > 0 && len(s.buf)+k > cap(s.buf) {
				// Reclaim the read prefix before growing.
				s.buf, s.off = s.buf[:copy(s.buf, s.buf[s.off:])], 0
			}
			s.buf = append(s.buf, p[:k]...)
			p, n = p[k:], n+k
			s.wake.Broadcast()
			if len(p) == 0 {
				return n, nil
			}
		}
		s.wd.arm(s)
		s.wake.Wait()
	}
}

// close marks one end of s closed: the reading end drops what it has not
// read, the writing end leaves its bytes for the peer. After either, no
// call on s blocks again, so both timers go.
func (s *stream) close(reader bool) {
	s.mu.Lock()
	if reader {
		s.rclosed = true
		s.buf, s.off = nil, 0
	} else {
		s.wclosed = true
	}
	s.rd.stop()
	s.wd.stop()
	s.mu.Unlock()
	s.wake.Broadcast()
}

// conn is one end: it reads r and writes w.
type conn struct {
	r, w *stream
}

// wrap spells a failure the way net.Pipe does.
func wrap(op string, err error) error {
	if err == nil || err == io.EOF || err == io.ErrClosedPipe {
		return err
	}
	return &net.OpError{Op: op, Net: "pipe", Err: err}
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.r.read(p)
	return n, wrap("read", err)
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.w.write(p)
	return n, wrap("write", err)
}

// Close closes this end. It always returns nil; closing twice is
// harmless.
func (c *conn) Close() error {
	c.r.close(true)
	c.w.close(false)
	return nil
}

func (c *conn) SetDeadline(t time.Time) error {
	if err := c.r.set(&c.r.rd, t); err != nil {
		return err
	}
	return c.w.set(&c.w.wd, t)
}

func (c *conn) SetReadDeadline(t time.Time) error  { return c.r.set(&c.r.rd, t) }
func (c *conn) SetWriteDeadline(t time.Time) error { return c.w.set(&c.w.wd, t) }

type addr struct{}

func (addr) Network() string { return "pipe" }
func (addr) String() string  { return "pipe" }

func (*conn) LocalAddr() net.Addr  { return addr{} }
func (*conn) RemoteAddr() net.Addr { return addr{} }
