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
	// buffers are discarded, and its uncommitted leases re-queue. Keep
	// it a small multiple of the workers' HeartbeatEvery.
	DeadAfter time.Duration
	// Prefetch is the lease depth per worker (default 2): one shard
	// running plus Prefetch-1 queued behind it, so a worker never
	// idles waiting for the next grant. Queued-but-unstarted leases
	// are the work-stealing pool.
	Prefetch int
	// MaxAttempts bounds how often one shard may be leased before the
	// campaign aborts (default 4) — a deterministically failing shard
	// must not ping-pong across the fleet forever.
	MaxAttempts int
	// WriteTimeout bounds every frame write (default 30s).
	WriteTimeout time.Duration
	// Metrics receives the coordinator-side fabric counters and the
	// heartbeat-gap max-gauge (nil disables).
	Metrics *telemetry.Registry
	// Faults injects coordinator-side failures (duplicate lease
	// grants) for the test matrix (nil = none).
	Faults FaultInjector
	// Clock overrides the time source (tests; default telemetry.NowNs).
	Clock Clock
	// Logf receives coordinator status lines (nil = silent).
	Logf func(format string, args ...any)
}

type coordMetrics struct {
	workersJoined       *telemetry.Counter
	workersDead         *telemetry.Counter
	leasesGranted       *telemetry.Counter
	leasesRequeued      *telemetry.Counter
	leasesStolen        *telemetry.Counter
	leasesDuplicated    *telemetry.Counter
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
		leasesStolen:        reg.Counter("fabric_leases_stolen"),
		leasesDuplicated:    reg.Counter("fabric_leases_duplicated"),
		shardsCommitted:     reg.Counter("fabric_shards_committed"),
		duplicatesDiscarded: reg.Counter("fabric_duplicates_discarded"),
		recordsReceived:     reg.Counter("fabric_records_received"),
		recordsOrphaned:     reg.Counter("fabric_records_orphaned"),
		heartbeatGap:        reg.MaxGauge("fabric_heartbeat_gap_ns"),
	}
}

// lease is one shard granted to one worker. Its buffer accumulates the
// shard's framed record lines and is only trusted once the Done frame
// commits it — a dead worker's lease buffers are discarded whole.
type lease struct {
	shard   int
	started bool
	buf     bytes.Buffer
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	conn     net.Conn
	fr       *framer
	name     string
	joined   int64 // join timestamp, for deterministic-ish victim order
	lastSeen int64 // ns; guarded by the coordinator mutex
	leases   map[int]*lease
	dead     bool
}

// Coordinator owns a networked campaign's shard lease state machine.
// Create with NewCoordinator, drive with Run.
type Coordinator struct {
	ln     net.Listener
	cfg    CoordinatorConfig
	clock  Clock
	faults FaultInjector
	m      coordMetrics

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
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = defaultClock
	}
	faults := cfg.Faults
	if faults == nil {
		faults = NopFaults{}
	}
	c := &Coordinator{
		ln:        ln,
		cfg:       cfg,
		clock:     clock,
		faults:    faults,
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
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := c.clock()
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
	br := bufio.NewReader(conn)
	// The join must arrive promptly; afterwards silence is the
	// monitor's business, not the reader's.
	if err := conn.SetReadDeadline(time.Unix(0, c.clock()).Add(c.cfg.WriteTimeout)); err != nil {
		conn.Close()
		return
	}
	typ, payload, err := readFrame(br)
	if err != nil || typ != FrameJoin {
		conn.Close()
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return
	}
	// Coordinator-side frames never consult the fault injector: its
	// frame/record/heartbeat hooks model worker failures.
	w := &workerConn{
		conn:     conn,
		fr:       newFramer(conn, c.cfg.WriteTimeout, c.clock, NopFaults{}),
		name:     string(payload),
		joined:   c.clock(),
		lastSeen: c.clock(),
		leases:   make(map[int]*lease),
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
		typ, payload, err := readFrame(br)
		if err != nil {
			c.declareDead(w, fmt.Sprintf("stream broken: %v", err))
			return
		}
		now := c.clock()
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
		case FrameStart:
			shard, _, derr := decodeShard(payload)
			if derr == nil {
				if l := w.leases[shard]; l != nil {
					l.started = true
				}
			}
			c.mu.Unlock()
		case FrameRecord:
			shard, line, derr := decodeShard(payload)
			if derr != nil {
				c.mu.Unlock()
				continue
			}
			if l := w.leases[shard]; l != nil {
				l.buf.Write(line)
				c.m.recordsReceived.Inc()
			} else {
				// A revoked or re-queued shard's stragglers: the lease
				// is gone, the bytes are void.
				c.m.recordsOrphaned.Inc()
			}
			c.mu.Unlock()
		case FrameDone:
			shard, _, derr := decodeShard(payload)
			if derr != nil {
				c.mu.Unlock()
				continue
			}
			c.commitLocked(w, shard)
			c.mu.Unlock()
			c.refill()
		case FrameFail:
			shard, msg, derr := decodeShard(payload)
			if derr != nil {
				c.mu.Unlock()
				continue
			}
			if l := w.leases[shard]; l != nil {
				delete(w.leases, shard)
				c.logf("fabric: worker %q failed shard %d: %s", w.name, shard, msg)
				c.requeueLocked(shard)
			}
			c.mu.Unlock()
			c.refill()
		default:
			c.mu.Unlock()
		}
	}
}

// commitLocked finalizes one shard stream. First complete copy wins;
// a duplicate lease's stream (double grant, steal race) is discarded.
func (c *Coordinator) commitLocked(w *workerConn, shard int) {
	l := w.leases[shard]
	if l == nil {
		return
	}
	delete(w.leases, shard)
	if shard >= len(c.committed) {
		return
	}
	if c.committed[shard] != nil {
		c.m.duplicatesDiscarded.Inc()
		c.logf("fabric: shard %d duplicate stream from %q discarded", shard, w.name)
		return
	}
	c.committed[shard] = l.buf.Bytes()
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
	if c.committed[shard] != nil {
		return // a duplicate copy already committed it
	}
	c.attempts[shard]++
	if c.attempts[shard] >= c.cfg.MaxAttempts {
		select {
		case c.fatal <- fmt.Errorf("fabric: shard %d failed %d times (attempt budget %d exhausted)",
			shard, c.attempts[shard], c.cfg.MaxAttempts):
		default:
		}
		return
	}
	c.pending = append(c.pending, shard)
	slices.Sort(c.pending)
	c.m.leasesRequeued.Inc()
}

// declareDead removes a worker: discard its partial shard buffers,
// re-queue its uncommitted leases, close its connection, and hand the
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
	var lost []int
	for shard := range w.leases {
		lost = append(lost, shard)
	}
	slices.Sort(lost)
	for _, shard := range lost {
		delete(w.leases, shard) // the partial buffer dies with the lease
		c.requeueLocked(shard)
	}
	closing := c.closing
	c.mu.Unlock()
	c.m.workersDead.Inc()
	if !closing {
		c.logf("fabric: worker %q dead (%s); re-queued shards %v", w.name, cause, lost)
	}
	w.conn.Close()
	c.refill()
}

// refill pushes pending shards to workers with lease capacity, steals
// unstarted leases for idle workers when the queue runs dry, and
// honors the duplicate-grant fault. Grants are computed under the
// mutex but sent outside it: a worker stalled in TCP backpressure may
// hold up its own frames for WriteTimeout, never the state machine.
func (c *Coordinator) refill() {
	type sendOp struct {
		w     *workerConn
		typ   FrameType
		shard int
	}
	var ops []sendOp

	c.mu.Lock()
	grantLocked := func(w *workerConn, shard int, dup bool) {
		w.leases[shard] = &lease{shard: shard}
		ops = append(ops, sendOp{w, FrameGrant, shard})
		c.m.leasesGranted.Inc()
		if dup {
			c.m.leasesDuplicated.Inc()
		}
	}
	// Grant order is deterministic given the same worker/queue state:
	// workers in join order, shards in queue order.
	for _, w := range c.workers {
		for len(c.pending) > 0 && len(w.leases) < c.cfg.Prefetch {
			shard := c.pending[0]
			c.pending = c.pending[1:]
			grantLocked(w, shard, false)
			if c.faults.DuplicateGrant(shard) {
				// The double-lease fault: the same shard also lands on
				// the next worker over (if any), so two complete copies
				// race for the commit.
				for _, w2 := range c.workers {
					if w2 != w && w2.leases[shard] == nil {
						grantLocked(w2, shard, true)
						break
					}
				}
			}
		}
	}
	// Work-stealing: the queue is dry, so idle workers raid the
	// deepest backlog of granted-but-unstarted leases. The victim's
	// lease is discarded before the revoke is sent — if its Start
	// frame is already in flight, the duplicate-commit rule absorbs
	// the race.
	if len(c.pending) == 0 {
		for _, idle := range c.workers {
			if len(idle.leases) != 0 {
				continue
			}
			var victim *workerConn
			victimShard := -1
			for _, v := range c.workers {
				if v == idle || len(v.leases) < 2 {
					continue
				}
				var unstarted []int
				for shard, l := range v.leases {
					if !l.started {
						unstarted = append(unstarted, shard)
					}
				}
				slices.Sort(unstarted)
				if len(unstarted) == 0 {
					continue
				}
				if victim == nil || len(v.leases) > len(victim.leases) {
					victim, victimShard = v, unstarted[len(unstarted)-1]
				}
			}
			if victim == nil {
				continue
			}
			delete(victim.leases, victimShard)
			idle.leases[victimShard] = &lease{shard: victimShard}
			c.m.leasesStolen.Inc()
			c.m.leasesGranted.Inc()
			ops = append(ops,
				sendOp{victim, FrameRevoke, victimShard},
				sendOp{idle, FrameGrant, victimShard})
			c.logf("fabric: idle worker %q stole shard %d from %q", idle.name, victimShard, victim.name)
		}
	}
	c.mu.Unlock()

	for _, op := range ops {
		if err := op.w.fr.send(op.typ, appendShard(nil, op.shard)); err != nil {
			c.declareDead(op.w, fmt.Sprintf("send %s: %v", op.typ, err))
		}
	}
}
