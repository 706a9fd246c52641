package fabric

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// CoordinatorConfig tunes the lease coordinator.
type CoordinatorConfig struct {
	// Shards is the campaign's total shard count; every shard index in
	// [0, Shards) must commit exactly once for Run to return.
	Shards int
	// Hello is the opaque campaign payload sent to every joining
	// worker (cmd/measure: CampaignSpec JSON).
	Hello []byte
	// DeadAfter is the heartbeat-gap death threshold (default 10s): a
	// worker silent for longer is declared dead, its partial shard
	// buffer is discarded, and its uncommitted lease re-queues. Keep it
	// a small multiple of the workers' HeartbeatEvery.
	DeadAfter time.Duration
	// Metrics receives the coordinator-side fabric counters and the
	// heartbeat-gap max-gauge (nil disables).
	Metrics *telemetry.Registry
	// Logf receives coordinator status lines (nil = silent).
	Logf func(format string, args ...any)
}

// maxAttempts bounds how often one shard may be leased before the
// campaign aborts: a deterministically failing shard must not ping-pong
// across the fleet forever.
const maxAttempts = 4

type coordMetrics struct {
	workersJoined       *telemetry.Counter
	workersDead         *telemetry.Counter
	leasesGranted       *telemetry.Counter
	leasesRequeued      *telemetry.Counter
	shardsCommitted     *telemetry.Counter
	duplicatesDiscarded *telemetry.Counter
	recordsReceived     *telemetry.Counter
	recordsOrphaned     *telemetry.Counter
	heartbeatGap        *telemetry.MaxGauge
}

func newCoordMetrics(reg *telemetry.Registry) coordMetrics {
	return coordMetrics{
		workersJoined:       reg.Counter("fabric_workers_joined"),
		workersDead:         reg.Counter("fabric_workers_dead"),
		leasesGranted:       reg.Counter("fabric_leases_granted"),
		leasesRequeued:      reg.Counter("fabric_leases_requeued"),
		shardsCommitted:     reg.Counter("fabric_shards_committed"),
		duplicatesDiscarded: reg.Counter("fabric_duplicates_discarded"),
		recordsReceived:     reg.Counter("fabric_records_received"),
		recordsOrphaned:     reg.Counter("fabric_records_orphaned"),
		heartbeatGap:        reg.MaxGauge("fabric_heartbeat_gap_ns"),
	}
}

// lease is one shard granted to one worker. Its blocks accumulate the
// shard's framed record lines and are only trusted once the Done frame
// commits them — a dead worker's lease is discarded whole. Lines fill
// fixed-size blocks that are joined once, at commit, so a growing
// stream is never copied into a buffer of twice its size; a joined or
// discarded lease gives its blocks back to leaseBlocks for the next.
type lease struct {
	shard  int
	blocks [][]byte
}

// leaseBlock is the capacity of one lease block; a longer line gets a
// block of its own, which is not pooled.
const leaseBlock = 1 << 20

// leaseBlocks holds the released blocks of every coordinator's leases.
var leaseBlocks = sync.Pool{New: func() any { return new([leaseBlock]byte) }}

func (l *lease) write(line []byte) {
	n := len(l.blocks)
	if n == 0 || len(l.blocks[n-1])+len(line) > cap(l.blocks[n-1]) {
		var block []byte
		if len(line) <= leaseBlock {
			block = leaseBlocks.Get().(*[leaseBlock]byte)[:0]
		} else {
			block = make([]byte, 0, len(line))
		}
		l.blocks = append(l.blocks, block)
		n++
	}
	l.blocks[n-1] = append(l.blocks[n-1], line...)
}

// stream joins the lease's blocks into the shard's one record stream,
// in a buffer that is not cleared first: the blocks fill all of it. The
// blocks are released after.
func (l *lease) stream() []byte {
	joined := bytes.Join(l.blocks, nil)
	l.release()
	return joined
}

// release gives the lease's blocks back to leaseBlocks.
func (l *lease) release() {
	for _, b := range l.blocks {
		if cap(b) == leaseBlock {
			leaseBlocks.Put((*[leaseBlock]byte)(b[:leaseBlock]))
		}
	}
	l.blocks = nil
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	conn     net.Conn
	fr       *framer
	name     string
	lastSeen int64  // ns; guarded by the coordinator mutex
	lease    *lease // the worker's one lease, nil while it holds none
	dead     bool
}

// Coordinator owns a networked campaign's shard lease state machine.
// Create with NewCoordinator, drive with Run.
type Coordinator struct {
	ln  net.Listener
	cfg CoordinatorConfig
	m   coordMetrics

	mu        sync.Mutex
	pending   []int // shards awaiting a lease, grant order
	attempts  []int // per-shard lease count
	committed [][]byte
	remaining int
	workers   []*workerConn // join order
	closing   bool

	finished chan struct{} // all shards committed
	fatal    chan error    // unrecoverable campaign error (attempt budget)
}

// NewCoordinator wraps an open listener. The caller keeps ownership of
// nothing: Run closes the listener and every connection on return.
func NewCoordinator(ln net.Listener, cfg CoordinatorConfig) *Coordinator {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 10 * time.Second
	}
	c := &Coordinator{
		ln:        ln,
		cfg:       cfg,
		m:         newCoordMetrics(cfg.Metrics),
		attempts:  make([]int, cfg.Shards),
		committed: make([][]byte, cfg.Shards),
		remaining: cfg.Shards,
		finished:  make(chan struct{}),
		fatal:     make(chan error, 1),
	}
	c.pending = make([]int, cfg.Shards)
	for i := range c.pending {
		c.pending[i] = i
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Run accepts workers, leases shards, and blocks until every shard
// committed (returning the N complete record streams in shard order),
// the context is cancelled, or a shard exhausts its attempt budget.
// If Shards is zero it returns immediately.
func (c *Coordinator) Run(ctx context.Context) ([][]byte, error) {
	defer func() {
		c.mu.Lock()
		c.closing = true
		workers := slices.Clone(c.workers)
		c.mu.Unlock()
		c.ln.Close()
		for _, w := range workers {
			w.fr.send(FrameShutdown, nil)
			w.conn.Close()
		}
	}()
	if c.remaining == 0 {
		return c.committed, nil
	}

	// Heartbeat monitor: a worker whose last frame is older than
	// DeadAfter is dead even though its connection still looks open —
	// the stalled-worker case a broken stream never reports.
	monStop := make(chan struct{})
	defer close(monStop)
	go c.monitor(monStop)

	acceptErr := make(chan error, 1)
	go func() {
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				c.mu.Lock()
				closing := c.closing
				c.mu.Unlock()
				if !closing {
					acceptErr <- err
				}
				return
			}
			go c.serve(conn)
		}
	}()

	select {
	case <-c.finished:
		return c.committed, nil
	case err := <-c.fatal:
		return nil, err
	case err := <-acceptErr:
		return nil, fmt.Errorf("fabric: accept: %w", err)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// monitor sweeps heartbeat gaps every quarter threshold.
func (c *Coordinator) monitor(stop <-chan struct{}) {
	tick := c.cfg.DeadAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	//studyvet:entropy-exempt — liveness: heartbeat gaps are wall time between processes; no record reads them
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := telemetry.NowNs()
		c.mu.Lock()
		var expired []*workerConn
		for _, w := range c.workers {
			gap := now - w.lastSeen
			c.m.heartbeatGap.Record(gap)
			if gap > c.cfg.DeadAfter.Nanoseconds() {
				expired = append(expired, w)
			}
		}
		c.mu.Unlock()
		for _, w := range expired {
			c.declareDead(w, fmt.Sprintf("heartbeat gap exceeded %s", c.cfg.DeadAfter))
		}
	}
}

// serve owns one worker connection: handshake, then the frame loop.
func (c *Coordinator) serve(conn net.Conn) {
	// A worker streams its lines as fast as it grabs: a buffer of many
	// frames lets one read take all that have arrived.
	br := bufio.NewReaderSize(conn, 64<<10)
	// The join must arrive promptly; afterwards silence is the
	// monitor's business, not the reader's.
	if err := conn.SetReadDeadline(ioDeadline()); err != nil {
		conn.Close()
		return
	}
	var buf []byte
	typ, payload, err := readFrame(br, &buf)
	if err != nil || typ != FrameJoin {
		conn.Close()
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return
	}
	// Coordinator-side frames never consult a fault injector: its hooks
	// model worker failures.
	w := &workerConn{
		conn:     conn,
		fr:       newFramer(conn, nil),
		name:     string(payload),
		lastSeen: telemetry.NowNs(),
	}
	if err := w.fr.send(FrameHello, c.cfg.Hello); err != nil {
		conn.Close()
		return
	}

	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.m.workersJoined.Inc()
	c.logf("fabric: worker %q joined (%s)", w.name, conn.RemoteAddr())
	c.refill()

	for {
		typ, payload, err := readFrame(br, &buf)
		if err != nil {
			c.declareDead(w, fmt.Sprintf("stream broken: %v", err))
			return
		}
		now := telemetry.NowNs()
		c.mu.Lock()
		if w.dead {
			// Frames racing the death verdict are void: the worker's
			// buffers are already discarded and its shards re-queued.
			c.mu.Unlock()
			return
		}
		c.m.heartbeatGap.Record(now - w.lastSeen)
		w.lastSeen = now
		switch typ {
		case FrameHeartbeat:
			c.mu.Unlock()
		case FrameRecord:
			shard, line, derr := decodeShard(payload)
			if derr != nil {
				c.mu.Unlock()
				continue
			}
			if l := w.lease; l != nil && l.shard == shard {
				l.write(line)
				c.m.recordsReceived.Inc()
			} else {
				// Records of a shard the worker holds no lease on are
				// void.
				c.m.recordsOrphaned.Inc()
			}
			c.mu.Unlock()
		case FrameDone:
			shard, _, derr := decodeShard(payload)
			l := w.lease
			if derr != nil || l == nil || l.shard != shard {
				c.mu.Unlock()
				continue
			}
			// The worker is done with the lease: grant it the next one
			// before joining this one's stream, so it does not wait on
			// the copy.
			w.lease = nil
			c.mu.Unlock()
			c.refill()
			stream := l.stream()
			c.mu.Lock()
			c.commitLocked(w, shard, stream)
			c.mu.Unlock()
		case FrameFail:
			shard, msg, derr := decodeShard(payload)
			if derr != nil {
				c.mu.Unlock()
				continue
			}
			if l := w.lease; l != nil && l.shard == shard {
				w.lease = nil
				l.release()
				c.logf("fabric: worker %q failed shard %d: %s", w.name, shard, string(msg)) // msg aliases the read buffer
				c.requeueLocked(shard)
			}
			c.mu.Unlock()
			c.refill()
		default:
			c.mu.Unlock()
		}
	}
}

// commitLocked commits stream, the whole of w's finished lease on
// shard. A shard is only ever leased to one worker at a time, so no
// second stream for it should arrive; the committed check guards that
// invariant by discarding any such stream whole.
func (c *Coordinator) commitLocked(w *workerConn, shard int, stream []byte) {
	if c.committed[shard] != nil {
		c.m.duplicatesDiscarded.Inc()
		c.logf("fabric: shard %d duplicate stream from %q discarded", shard, w.name)
		return
	}
	c.committed[shard] = stream
	c.remaining--
	c.m.shardsCommitted.Inc()
	c.logf("fabric: shard %d committed by %q (%d bytes, %d remaining)",
		shard, w.name, len(c.committed[shard]), c.remaining)
	if c.remaining == 0 {
		close(c.finished)
	}
}

// requeueLocked returns a shard to the pending queue, aborting the
// campaign when its attempt budget is exhausted.
func (c *Coordinator) requeueLocked(shard int) {
	c.attempts[shard]++
	if c.attempts[shard] >= maxAttempts {
		select {
		case c.fatal <- fmt.Errorf("fabric: shard %d failed %d times (attempt budget %d exhausted)",
			shard, c.attempts[shard], maxAttempts):
		default:
		}
		return
	}
	c.pending = append(c.pending, shard)
	slices.Sort(c.pending)
	c.m.leasesRequeued.Inc()
}

// declareDead removes a worker: discard its partial shard buffer,
// re-queue its uncommitted lease, close its connection, and hand the
// re-queued work to the survivors.
func (c *Coordinator) declareDead(w *workerConn, cause string) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	if i := slices.Index(c.workers, w); i >= 0 {
		c.workers = slices.Delete(c.workers, i, i+1)
	}
	lost := "it held no lease"
	if l := w.lease; l != nil {
		w.lease = nil // the partial buffer dies with the lease
		l.release()
		c.requeueLocked(l.shard)
		lost = fmt.Sprintf("re-queued shard %d", l.shard)
	}
	closing := c.closing
	c.mu.Unlock()
	c.m.workersDead.Inc()
	if !closing {
		c.logf("fabric: worker %q dead (%s); %s", w.name, cause, lost)
	}
	w.conn.Close()
	c.refill()
}

// refill grants the next pending shard to every worker that holds no
// lease. Grants are computed under the mutex but sent outside it: a
// worker stalled in TCP backpressure may hold up its own frames for
// writeTimeout, never the state machine.
func (c *Coordinator) refill() {
	type grant struct {
		w     *workerConn
		shard int
	}
	var grants []grant
	c.mu.Lock()
	// Grant order is deterministic given the same worker/queue state:
	// workers in join order, shards in queue order.
	for _, w := range c.workers {
		if w.lease == nil && len(c.pending) > 0 {
			shard := c.pending[0]
			c.pending = c.pending[1:]
			w.lease = &lease{shard: shard}
			grants = append(grants, grant{w, shard})
			c.m.leasesGranted.Inc()
		}
	}
	c.mu.Unlock()

	for _, g := range grants {
		if err := g.w.fr.send(FrameGrant, appendShard(nil, g.shard)); err != nil {
			c.declareDead(g.w, fmt.Sprintf("send grant: %v", err))
		}
	}
}
