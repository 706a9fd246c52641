// Package memconn is the simulated Internet's connection: an in-process,
// full-duplex net.Conn pair with a byte buffer per direction, whose
// deadlines run on a virtual clock. It takes net.Pipe's place under
// simnet, worldview and chaos, and costs what a simulated connection
// does rather than what a rendezvous adds.
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
//     blocked call.
//   - Deadlines. Set*Deadline stores a time and allocates nothing. The
//     time is the pipe's Timeline: virtual, and it moves only when every
//     end of the pipe's group is closed or has a call blocked here. It
//     then jumps to the earliest deadline of those calls, so a deadline
//     fires only when nothing else could happen. A deadline set, moved or
//     cleared while a call is blocked takes effect on that call.
//   - Errors are net.Pipe's, value for value, because the scanner writes
//     error strings into dataset records and classifies failures by
//     identity: a timeout is &net.OpError{Op: "read"|"write", Net: "pipe",
//     Err: os.ErrDeadlineExceeded} ("read pipe: i/o timeout"), io.EOF and
//     io.ErrClosedPipe are returned bare.
//
// Where the conn and net.Pipe deliberately differ: buffered bytes
// survive the peer's Close, zero-length calls on an open connection
// return at once, Write blocks only at the high-water mark, and a
// deadline does not fire while the peer is running.
//
// The package imports the standard library only.
package memconn

import (
	"context"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// highWater is the most unread bytes one direction buffers: one chunk at
// the UACP buffer size every simulated peer negotiates.
const highWater = 64 << 10

// origin is the instant every timeline starts at. It lies before any
// wall reading, so a wall-clock deadline set on a pipe by mistake is in
// its far future: it never fires, rather than firing at once.
var origin = time.Unix(0, 0)

// Timeline is the virtual clock of the pipes of one exchange (a grab's
// connections): it stands still while any party of a group is running.
// A nil *Timeline is the wall clock, the one a real connection's
// deadlines are set in (ClockOf).
type Timeline struct {
	elapsed atomic.Int64 // nanoseconds since origin
}

// NewTimeline returns a timeline at its origin.
func NewTimeline() *Timeline { return new(Timeline) }

// Now returns the time on the timeline.
func (tl *Timeline) Now() time.Time {
	if tl == nil {
		return wallNow()
	}
	return origin.Add(time.Duration(tl.elapsed.Load()))
}

//studyvet:entropy-exempt — the wall clock of a real connection (a nil Timeline); no pipe reads it
func wallNow() time.Time { return time.Now() }

// advance moves the timeline on to t; it never moves back.
func (tl *Timeline) advance(t time.Time) {
	to := int64(t.Sub(origin))
	for {
		cur := tl.elapsed.Load()
		if to <= cur || tl.elapsed.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Sleep waits d, or until ctx is done. On a virtual timeline the
// sleeper is the only party that could act, so the clock moves on by d
// and Sleep returns at once; on the wall it waits.
func (tl *Timeline) Sleep(ctx context.Context, d time.Duration) {
	if ctx.Err() != nil {
		return
	}
	if tl != nil {
		tl.elapsed.Add(int64(d))
		return
	}
	//studyvet:entropy-exempt — the wall clock's wait, for a real connection (a nil Timeline); no pipe waits on it
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Pipe returns the two ends of a new connection on a timeline of its
// own. What one end writes the other reads.
func Pipe() (net.Conn, net.Conn) { return NewTimeline().Pipe() }

// Pipe returns the two ends of a new connection on tl, in a group of
// its own.
func (tl *Timeline) Pipe() (net.Conn, net.Conn) { return (&group{tl: tl}).pipe() }

// Join returns a new connection in c's group, for a goroutine that
// relays between the two: it is blocked on one while it feeds the
// other, so neither is quiescent without the other. A c that is not an
// end of a pipe gets a connection on a timeline of its own.
func Join(c net.Conn) (net.Conn, net.Conn) {
	if mc, ok := c.(*conn); ok {
		g := mc.r.g
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.pipe()
	}
	return Pipe()
}

// ClockOf returns the timeline c's deadlines are set in: its pipe's for
// an end of a pipe, nil (the wall clock) for any other connection. A
// wrapper with a NetConn method (as crypto/tls has) has its conn's.
func ClockOf(c net.Conn) *Timeline {
	if w, ok := c.(interface{ NetConn() net.Conn }); ok {
		return ClockOf(w.NetConn())
	}
	if mc, ok := c.(*conn); ok {
		return mc.r.g.tl
	}
	return nil
}

type timelineKey struct{}

// WithTimeline annotates ctx with the timeline a dial should put its
// pipe on.
func WithTimeline(ctx context.Context, tl *Timeline) context.Context {
	return context.WithValue(ctx, timelineKey{}, tl)
}

// TimelineFrom returns ctx's timeline, or a new one when it carries
// none.
func TimelineFrom(ctx context.Context) *Timeline {
	if tl, ok := ctx.Value(timelineKey{}).(*Timeline); ok && tl != nil {
		return tl
	}
	return NewTimeline()
}

// group is the pipes whose quiescence is judged together, under one
// mutex: a dialed pipe, plus the inner pipe of a relay (Join).
type group struct {
	mu   sync.Mutex
	tl   *Timeline
	ends []*conn
}

// pipe adds a pipe to g; g.mu is held or g is not yet shared.
func (g *group) pipe() (net.Conn, net.Conn) {
	p := new(pipe)
	p.ab.g, p.ba.g = g, g
	p.ab.wake.L, p.ba.wake.L = &g.mu, &g.mu
	p.a = conn{r: &p.ba, w: &p.ab}
	p.b = conn{r: &p.ab, w: &p.ba}
	g.ends = append(g.ends, &p.a, &p.b)
	return &p.a, &p.b
}

// passed reports whether deadline d has expired on g's timeline.
func (g *group) passed(d time.Time) bool {
	return !d.IsZero() && !g.tl.Now().Before(d)
}

// settle is called, with g.mu held, by a call about to block. If every
// end of the group is closed or has a call that cannot proceed, only a
// deadline can change anything: the timeline jumps to the earliest
// deadline of those calls and every call of the group is woken. It
// reports whether it did, in which case the caller looks again before
// it waits.
func (g *group) settle() bool {
	var next time.Time
	earliest := func(d time.Time) {
		if !d.IsZero() && (next.IsZero() || d.Before(next)) {
			next = d
		}
	}
	for _, e := range g.ends {
		if e.r.rclosed {
			continue
		}
		stuck := false
		if s := e.r; s.readers > 0 && !s.wclosed && s.off == len(s.buf) && !g.passed(s.rd) {
			stuck = true
			earliest(s.rd)
		}
		if s := e.w; s.writers > 0 && !s.rclosed && len(s.buf)-s.off >= highWater && !g.passed(s.wd) {
			stuck = true
			earliest(s.wd)
		}
		if !stuck {
			return false
		}
	}
	if next.IsZero() {
		return false
	}
	g.tl.advance(next)
	for _, e := range g.ends {
		e.r.wake.Broadcast()
	}
	return true
}

// pipe holds both directions and both ends in one allocation.
type pipe struct {
	ab, ba stream
	a, b   conn
}

// stream is one direction: bytes queued by the writing end until the
// reading end takes them. Its state is guarded by g.mu.
type stream struct {
	g    *group
	wake sync.Cond // every state change: bytes in, bytes out, close, deadline

	buf []byte // unread bytes are buf[off:]
	off int
	box *[]byte // what buf goes back to buffers in, nil until it has one

	rclosed bool // the reading end closed: nothing more is accepted
	wclosed bool // the writing end closed: EOF once drained

	rd, wd           time.Time // the reading end's read, the writing end's write deadline; zero: none
	readers, writers int       // calls waiting on wake

	wmu sync.Mutex // one Write at a time, so its bytes stay together
}

// set stores deadline t in *d, a deadline of s, and lets blocked calls
// see it.
func (s *stream) set(d *time.Time, t time.Time) error {
	s.g.mu.Lock()
	closed := s.rclosed || s.wclosed
	if !closed {
		*d = t
	}
	s.g.mu.Unlock()
	if closed {
		return io.ErrClosedPipe
	}
	s.wake.Broadcast()
	return nil
}

func (s *stream) read(p []byte) (int, error) {
	g := s.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch {
		case s.rclosed:
			return 0, io.ErrClosedPipe
		case s.wclosed && s.off == len(s.buf):
			return 0, io.EOF
		case g.passed(s.rd):
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
		s.readers++
		if !g.settle() {
			s.wake.Wait()
		}
		s.readers--
	}
}

func (s *stream) write(p []byte) (n int, err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	g := s.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch {
		case s.wclosed || s.rclosed:
			return n, io.ErrClosedPipe
		case g.passed(s.wd):
			return n, os.ErrDeadlineExceeded
		}
		if room := highWater - (len(s.buf) - s.off); room > 0 || len(p) == 0 {
			k := min(room, len(p))
			if s.buf == nil && k > 0 {
				s.reuse()
			}
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
		s.writers++
		if !g.settle() {
			s.wake.Wait()
		}
		s.writers--
	}
}

// buffers holds the buffers of directions whose reading end has closed,
// for the directions of later pipes. A buffer has one owner at a time:
// its stream, until the reading end's Close hands it back here under
// the group mutex, after which no call of that pipe touches it.
var buffers sync.Pool // of *[]byte

// reuse gives s a buffer a closed direction left, if there is one;
// g.mu is held.
func (s *stream) reuse() {
	if b, ok := buffers.Get().(*[]byte); ok {
		s.buf, s.box = (*b)[:0], b
	}
}

// recycle hands s's buffer to buffers and drops what it held unread;
// g.mu is held and s's reading end is closed, so nothing reads or
// writes s again.
func (s *stream) recycle() {
	if cap(s.buf) > 0 {
		if s.box == nil {
			s.box = new([]byte)
		}
		*s.box = s.buf[:0]
		buffers.Put(s.box)
	}
	s.buf, s.off, s.box = nil, 0, nil
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

// Close closes this end: it drops what it has not read, handing the
// buffer it read from to a later pipe, and leaves what it wrote for the
// peer. It always returns nil; closing twice is harmless.
func (c *conn) Close() error {
	c.r.g.mu.Lock()
	c.r.rclosed = true
	c.r.recycle()
	c.w.wclosed = true
	c.r.g.mu.Unlock()
	c.r.wake.Broadcast()
	c.w.wake.Broadcast()
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
